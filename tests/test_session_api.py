"""Tests for the unified ``Detector`` session API: engines, streaming, budgets."""

from __future__ import annotations

import importlib
import inspect

import pytest

from repro.core.builtin_rules import example_rules, phi2
from repro.core.validation import find_violations
from repro.core.violations import ViolationSet
from repro.datasets.figure1 import figure1_g2, figure1_graphs
from repro.detect import DetectionOptions, Detector, drain
from repro.detect.dect import iter_dect
from repro.detect.incdect import iter_inc_dect
from repro.detect.parallel.pdect import iter_p_dect
from repro.detect.parallel.pincdect import iter_pinc_dect
from repro.errors import SessionError
from repro.graph.graph import Graph
from repro.graph.updates import BatchUpdate, UpdateGenerator, apply_update

from engines import new_store


def _many_violations_graph(copies: int = 6) -> Graph:
    """A graph with ``copies`` independent φ2 violations (wrong population totals)."""
    graph = Graph("many-vio")
    for index in range(copies):
        area = f"area{index}"
        graph.add_node(area, "area")
        graph.add_node(f"{area}/f", "integer", {"val": 100 + index})
        graph.add_node(f"{area}/m", "integer", {"val": 200 + index})
        graph.add_node(f"{area}/t", "integer", {"val": 999_000 + index})  # wrong total
        graph.add_edge(area, f"{area}/f", "femalePopulation")
        graph.add_edge(area, f"{area}/m", "malePopulation")
        graph.add_edge(area, f"{area}/t", "populationTotal")
    return graph


class TestEngines:
    def test_unknown_engine_rejected(self):
        with pytest.raises(SessionError):
            Detector(example_rules(), engine="quantum")

    def test_bad_processors_rejected(self):
        with pytest.raises(SessionError):
            Detector(example_rules(), processors=0)

    def test_incremental_engine_refuses_full_run(self):
        detector = Detector(example_rules(), engine="incremental")
        with pytest.raises(SessionError):
            detector.run(figure1_g2())

    def test_batch_engine_refuses_incremental_run(self):
        detector = Detector(example_rules(), engine="batch")
        delta = BatchUpdate().delete("Bhonpur", "total", "populationTotal")
        with pytest.raises(SessionError, match="full runs only"):
            detector.run_incremental(figure1_g2(), delta)
        with pytest.raises(SessionError, match="full runs only"):
            list(detector.stream_incremental(figure1_g2(), delta))

    def test_auto_engine_selects_parallel_with_processors(self):
        graph = figure1_g2()
        result = Detector(example_rules(), processors=4).run(graph)
        assert result.algorithm == "PDect"
        assert result.processors == 4
        result = Detector(example_rules()).run(graph)
        assert result.algorithm == "Dect"

    def test_rules_accepts_plain_list(self):
        result = Detector([phi2()]).run(figure1_g2())
        assert result.violation_count() == 1

    @pytest.mark.parametrize("store", ("indexed", "frozen"))
    def test_there_is_no_store_option(self, store):
        # a session runs on the graph it is handed: it converts nothing
        with pytest.raises(TypeError):
            Detector(example_rules(), store=store)

    @pytest.mark.parametrize("option", ("use_planner", "compiled"))
    def test_there_is_no_pipeline_option(self, option):
        # every run is planned and its literals generated: no other pipeline to pick
        with pytest.raises(TypeError):
            DetectionOptions(**{option: False})

    @pytest.mark.parametrize("switch", ("REPRO_MATCH_PLANNER", "REPRO_COMPILED_EVAL"))
    def test_no_environment_switch_turns_the_pipeline_off(self, switch, monkeypatch):
        graph = figure1_g2()
        expected = Detector(example_rules()).run(graph)
        monkeypatch.setenv(switch, "off")
        detector = Detector(example_rules())
        result = detector.run(graph)
        assert detector.plan_compilations == 1
        assert result.violations.to_json() == expected.violations.to_json()
        assert result.stats.total_operations() == expected.stats.total_operations()


class TestStreaming:
    @pytest.mark.parametrize("backend", ["dict", "indexed"])
    def test_stream_matches_dect_on_both_backends(self, backend):
        rules = example_rules()
        for name, graph in figure1_graphs().items():
            graph = graph.with_backend(new_store(backend))
            streamed = ViolationSet(Detector(rules).stream(graph))
            assert streamed == Detector(rules, engine="batch").run(graph).violations, (name, backend)

    def test_stream_sets_last_result(self):
        graph = figure1_g2()
        detector = Detector(example_rules())
        assert detector.last_result is None
        list(detector.stream(graph))
        assert detector.last_result is not None
        assert detector.last_result.violation_count() == 1

    def test_stream_matches_ground_truth_matcher(self):
        graph = _many_violations_graph()
        rules = example_rules()
        streamed = ViolationSet(Detector(rules).stream(graph))
        assert streamed == ViolationSet(find_violations(graph, rules))

    def test_stream_incremental_yields_signed_events(self):
        graph = figure1_g2()
        delta = BatchUpdate().delete("Bhonpur", "total", "populationTotal")
        events = list(Detector(example_rules()).stream_incremental(graph, delta))
        assert len(events) == 1
        assert events[0].introduced is False
        assert events[0].violation.rule == "phi2"

    def test_stream_order_is_the_kernel_order(self):
        graph = _many_violations_graph()
        detector = Detector(example_rules())
        first = list(detector.stream(graph))
        assert first == list(detector.stream(graph))
        assert first == list(iter_dect(graph, example_rules()))

    def test_stream_incremental_directions_match_run_incremental(self):
        graph = figure1_g2()
        delta = UpdateGenerator(seed=21).generate(graph, 12, insert_ratio=0.5)
        detector = Detector(example_rules(), engine="incremental")
        events = list(detector.stream_incremental(graph, delta))
        result = detector.run_incremental(graph, delta)
        assert events
        assert ViolationSet(e.violation for e in events if e.introduced) == result.introduced()
        assert ViolationSet(e.violation for e in events if not e.introduced) == result.removed()

    def test_parallel_stream_matches_p_dect(self):
        graph = _many_violations_graph()
        rules = example_rules()
        streamed = ViolationSet(Detector(rules, engine="parallel", processors=4).stream(graph))
        assert streamed == Detector(rules, engine="parallel", processors=4).run(graph).violations


class TestStreamBilling:
    def test_stream_yields_the_result_and_bills_the_kernel(self):
        graph = _many_violations_graph()
        detector = Detector(example_rules())
        streamed = ViolationSet(detector.stream(graph))
        result = detector.last_result
        assert streamed == result.violations
        assert result.violation_count() == 6
        # the session adds nothing to the bill of the kernel it drives
        kernel = drain(iter_dect(graph, example_rules()))
        assert (kernel.cost, kernel.violations) == (result.cost, result.violations)


class TestSessionDrivesTheKernels:
    """Each engine's session answers and bills exactly as the kernel it drains."""

    def test_batch_engine_bills_like_iter_dect_on_figure1(self):
        rules = example_rules()
        for name, graph in figure1_graphs().items():
            kernel = drain(iter_dect(graph, rules))
            session = Detector(rules, engine="batch").run(graph)
            assert session.violations == kernel.violations, name
            assert session.cost == kernel.cost, name
            assert session.algorithm == kernel.algorithm == "Dect"

    def test_parallel_engine_bills_like_iter_p_dect_on_figure1(self):
        rules = example_rules()
        for name, graph in figure1_graphs().items():
            kernel = drain(iter_p_dect(graph, rules, processors=4))
            session = Detector(rules, engine="parallel", processors=4).run(graph)
            assert session.violations == kernel.violations, name
            assert session.cost == kernel.cost, name
            assert session.algorithm == kernel.algorithm == "PDect"

    def test_incremental_engine_bills_like_iter_inc_dect(self):
        rules = example_rules()
        graph = figure1_g2()
        delta = BatchUpdate().delete("Bhonpur", "total", "populationTotal")
        kernel = drain(iter_inc_dect(graph, rules, delta))
        session = Detector(rules, engine="incremental").run_incremental(graph, delta)
        assert session.delta == kernel.delta
        assert session.cost == kernel.cost
        assert session.total_changes() == 1

    def test_parallel_incremental_engine_bills_like_iter_pinc_dect(self):
        rules = example_rules()
        graph = figure1_g2()
        delta = BatchUpdate().delete("Bhonpur", "total", "populationTotal")
        kernel = drain(iter_pinc_dect(graph, rules, delta, processors=4))
        session = Detector(rules, engine="parallel", processors=4).run_incremental(graph, delta)
        assert session.delta == kernel.delta
        assert session.cost == kernel.cost
        assert session.algorithm == kernel.algorithm == "PIncDect"

    def test_kernels_take_plans_and_graph_after_as_keywords(self):
        # the keyword form the end-to-end benchmark layers call the kernels with
        rules = example_rules()
        graph = figure1_g2()
        delta = BatchUpdate().delete("Bhonpur", "total", "populationTotal")
        detector = Detector(rules, engine="incremental")
        plans = detector.compile_plans(graph)
        batch = drain(iter_dect(graph, rules, plans=plans))
        assert batch.violations == Detector(rules, engine="batch").run(graph).violations
        incremental = drain(
            iter_inc_dect(
                graph, rules, delta, graph_after=apply_update(graph, delta), plans=plans
            )
        )
        assert incremental.delta == detector.run_incremental(graph, delta).delta


class TestOneWayIn:
    """Detection has one entry point: the kernel shims stay gone."""

    @pytest.mark.parametrize("package", ("repro", "repro.detect", "repro.detect.parallel"))
    def test_no_package_exports_a_kernel_shim(self, package):
        module = importlib.import_module(package)
        for name in ("dect", "inc_dect", "p_dect", "pinc_dect"):
            assert name not in module.__all__, (package, name)
            # ``repro.detect.dect`` is the module that holds ``iter_dect``
            assert not inspect.isfunction(getattr(module, name, None)), (package, name)

    def test_detector_takes_four_parameters(self):
        parameters = list(inspect.signature(Detector.__init__).parameters)
        assert parameters == ["self", "rules", "engine", "processors", "options"]


class TestBudgets:
    def test_max_violations_stops_early_with_less_cost(self):
        graph = _many_violations_graph(copies=6)
        rules = example_rules()
        full = Detector(rules).run(graph)
        assert full.violation_count() == 6
        assert not full.stopped_early

        capped = Detector(rules, options=DetectionOptions(max_violations=1)).run(graph)
        assert capped.violation_count() == 1
        assert capped.stopped_early
        assert capped.stop_reason == "max_violations"
        assert capped.cost < full.cost
        # the capped finding is a genuine member of the full answer
        assert capped.violations.as_set() <= full.violations.as_set()

    def test_max_violations_stops_stream(self):
        graph = _many_violations_graph(copies=6)
        detector = Detector(example_rules(), options=DetectionOptions(max_violations=2))
        assert len(list(detector.stream(graph))) == 2
        assert detector.last_result.stopped_early

    def test_max_cost_stops_early(self):
        graph = _many_violations_graph(copies=6)
        rules = example_rules()
        full = Detector(rules).run(graph)
        capped = Detector(rules, options=DetectionOptions(max_cost=full.cost / 4)).run(graph)
        assert capped.stopped_early
        assert capped.stop_reason == "max_cost"
        assert capped.cost < full.cost

    def test_nonpositive_caps_rejected(self):
        from repro.detect import DetectionBudget

        with pytest.raises(SessionError):
            DetectionBudget(max_violations=0)
        with pytest.raises(SessionError):
            DetectionBudget(max_cost=0.0)
        for cost in (float("nan"), float("inf")):
            with pytest.raises(SessionError, match="finite"):
                DetectionBudget(max_cost=cost)
        with pytest.raises(SessionError):
            Detector(example_rules(), options=DetectionOptions(max_violations=-1)).run(
                figure1_g2()
            )

    @pytest.mark.parametrize("max_cost", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_a_non_finite_cost_budget_is_refused_not_unbounded(self, max_cost):
        # no cost ever reaches NaN or ∞: the run would never stop on either
        detector = Detector(example_rules(), options=DetectionOptions(max_cost=max_cost))
        with pytest.raises(SessionError, match="max_cost"):
            detector.run(figure1_g2())

    def test_budget_applies_to_parallel_engine(self):
        graph = _many_violations_graph(copies=6)
        options = DetectionOptions(max_violations=1)
        capped = Detector(example_rules(), engine="parallel", processors=4, options=options).run(graph)
        assert capped.violation_count() == 1
        assert capped.stopped_early

    def test_budget_applies_to_incremental_engine(self):
        graph = _many_violations_graph(copies=6)
        delta = BatchUpdate()
        for index in range(6):
            delta.delete(f"area{index}", f"area{index}/t", "populationTotal")
        options = DetectionOptions(max_violations=1)
        capped = Detector(example_rules(), options=options).run_incremental(graph, delta)
        assert capped.total_changes() == 1
        assert capped.stopped_early
        full = Detector(example_rules()).run_incremental(graph, delta)
        assert full.total_changes() == 6
        assert capped.cost < full.cost
