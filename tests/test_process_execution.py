"""Cross-process parity suite for ``execution="processes"``.

The contract the ISSUE names: the real multi-process backend must produce
**byte-identical** ``ViolationSet``s to the serial kernel and the cluster
simulator — across storage backends {dict, indexed, csr} — while
honouring ``DetectionBudget`` early
cancellation and the ``ViolationSink`` streaming contract under real
concurrency.  Plan persistence (``save_plans`` / ``load_plans`` /
``Detector(plans_file=...)``) and the service's bounded detection job
pool (429 admission control) ride along.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.builtin_rules import example_rules
from repro.datasets.figure1 import figure1_g2
from repro.datasets.kb import KBConfig, knowledge_graph
from repro.datasets.rules import benchmark_rules
from repro.detect import (
    CallbackSink,
    CollectingSink,
    DetectionOptions,
    Detector,
)
from repro.detect.parallel.balancing import should_split, should_split_planned
from repro.detect.parallel.executor import ExecutionRuntime, resolve_start_method
from repro.errors import ExecutionError, PoolSaturatedError, ServiceError, SessionError
from repro.graph.sharded import ShardedStore
from repro.graph.updates import UpdateGenerator
from repro.matching.plan import (
    MatchPlan,
    compile_plans,
    load_plans,
    plans_from_document,
    plans_to_document,
    save_plans,
)
from repro.service import DetectionService, ServiceClient, parse_detect_request
from repro.service.jobs import DetectionJobPool


@pytest.fixture(scope="module")
def kb_graph():
    config = KBConfig(
        name="kb-processes",
        num_entities=150,
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
    return knowledge_graph(config)


@pytest.fixture(scope="module")
def kb_rules(kb_graph):
    return benchmark_rules(kb_graph, count=12, max_diameter=4, seed=2)


@pytest.fixture(scope="module")
def kb_delta(kb_graph):
    # seed 21 / size 80 introduces violations (asserted below), so the
    # incremental parity legs exercise a non-trivial ΔVio
    return UpdateGenerator(seed=21).generate(kb_graph, 80, insert_ratio=0.5)


def _options(**overrides) -> DetectionOptions:
    return DetectionOptions(execution="processes", **overrides)


# -------------------------------------------------------------- batch parity


class TestBatchParity:
    @pytest.mark.parametrize("backend", ("dict", "indexed", "csr"))
    @pytest.mark.parametrize("adaptive", (True, False), ids=("adaptive", "static"))
    def test_byte_identical_across_backends(self, kb_graph, kb_rules, backend, adaptive):
        # adaptive: workers replan suffixes from what they observe; static:
        # every unit follows the compiled order
        graph = kb_graph.with_backend(backend)
        options = DetectionOptions(adaptive=adaptive)
        serial = Detector(kb_rules, engine="batch", options=options).run(graph)
        simulated = Detector(kb_rules, engine="parallel", processors=4, options=options).run(graph)
        processes = Detector(
            kb_rules, engine="parallel", processors=4, options=_options(adaptive=adaptive)
        ).run(graph)
        assert len(serial.violations) > 0
        assert (
            processes.violations.to_json()
            == simulated.violations.to_json()
            == serial.violations.to_json()
        )
        assert processes.algorithm == "PDect"
        assert processes.processors == 4
        assert not processes.stopped_early

    def test_figure1_single_process(self, kb_rules):
        graph = figure1_g2()
        serial = Detector(example_rules(), engine="batch").run(graph)
        processes = Detector(
            example_rules(), engine="parallel", processors=1, options=_options()
        ).run(graph)
        assert processes.violations.to_json() == serial.violations.to_json()

    def test_worker_traces_account_work(self, kb_graph, kb_rules):
        result = Detector(
            kb_rules, engine="parallel", processors=4, options=_options()
        ).run(kb_graph)
        assert len(result.worker_traces) == 4
        assert sum(t.work_units_processed for t in result.worker_traces) > 0
        assert result.cost > 0

    def test_execution_processes_implies_parallel_engine(self, kb_graph, kb_rules):
        detector = Detector(kb_rules, options=_options())
        result = detector.run(kb_graph)
        assert result.algorithm == "PDect"

    def test_unknown_execution_mode_is_refused(self, kb_rules):
        with pytest.raises(SessionError):
            Detector(kb_rules, options=DetectionOptions(execution="quantum"))

    @pytest.mark.parametrize("engine", ("batch", "incremental"))
    def test_processes_with_serial_engine_is_refused(self, kb_rules, engine):
        # engine='batch'/'incremental' are single-process by definition; a
        # session claiming execution='processes' with them would silently
        # measure serial numbers, so it is rejected up front
        with pytest.raises(SessionError):
            Detector(kb_rules, engine=engine, options=_options())

    def test_unknown_start_method_is_refused(self):
        with pytest.raises(ExecutionError):
            resolve_start_method("not-a-method")


# -------------------------------------------------------- incremental parity


class TestIncrementalParity:
    @pytest.mark.parametrize("backend", ("dict", "indexed"))
    @pytest.mark.parametrize("adaptive", (True, False), ids=("adaptive", "static"))
    def test_delta_identical_across_backends(self, kb_graph, kb_rules, kb_delta, backend, adaptive):
        graph = kb_graph.with_backend(backend)
        options = DetectionOptions(adaptive=adaptive)
        incremental = Detector(kb_rules, engine="incremental", options=options).run_incremental(graph, kb_delta)
        simulated = Detector(
            kb_rules, engine="parallel", processors=4, options=options
        ).run_incremental(graph, kb_delta)
        processes = Detector(
            kb_rules, engine="parallel", processors=4, options=_options(adaptive=adaptive)
        ).run_incremental(graph, kb_delta)
        assert incremental.delta.total_changes() > 0
        assert processes.delta == simulated.delta == incremental.delta
        assert processes.algorithm == "PIncDect"
        assert processes.neighborhood_size and processes.neighborhood_size > 0

    def test_policy_variants_identical(self, kb_graph, kb_rules, kb_delta):
        from repro.detect.parallel.balancing import BalancingPolicy

        expected = Detector(kb_rules, engine="incremental").run_incremental(kb_graph, kb_delta)
        for policy in (BalancingPolicy.hybrid(), BalancingPolicy.none()):
            result = Detector(
                kb_rules, engine="parallel", processors=4, options=_options(policy=policy)
            ).run_incremental(kb_graph, kb_delta)
            assert result.delta == expected.delta


# ----------------------------------------------------- budgets under processes


class TestBudgetCancellation:
    def test_max_violations_cancels_across_processes(self, kb_graph, kb_rules):
        result = Detector(
            kb_rules,
            engine="parallel",
            processors=4,
            options=_options(max_violations=3),
        ).run(kb_graph)
        assert len(result.violations) <= 3
        assert result.stopped_early
        assert result.stop_reason == "max_violations"

    def test_max_cost_cancels_across_processes(self, kb_graph, kb_rules):
        full = Detector(kb_rules, engine="parallel", processors=4, options=_options()).run(kb_graph)
        capped = Detector(
            kb_rules,
            engine="parallel",
            processors=4,
            options=_options(max_cost=full.cost / 10),
        ).run(kb_graph)
        assert capped.stopped_early
        assert capped.stop_reason == "max_cost"
        # every reported violation is a true member of the full answer
        assert capped.violations.as_set() <= full.violations.as_set()

    def test_budget_result_violations_are_exact(self, kb_graph, kb_rules):
        full = Detector(kb_rules, engine="batch").run(kb_graph)
        capped = Detector(
            kb_rules, engine="parallel", processors=2, options=_options(max_violations=2)
        ).run(kb_graph)
        assert capped.violations.as_set() <= full.violations.as_set()


# ------------------------------------------------------------- sink streaming


class TestSinkStreaming:
    def test_sink_sees_yielded_order_and_finish(self, kb_graph, kb_rules):
        streamed: list = []
        observed: list = []
        collecting = CollectingSink()
        detector = Detector(
            kb_rules,
            engine="parallel",
            processors=4,
            options=_options(),
            sinks=[CallbackSink(lambda v, introduced: observed.append(v)), collecting],
        )
        for violation in detector.stream(kb_graph):
            streamed.append(violation)
        assert streamed == observed  # sink notified right before each yield
        assert collecting.violations.as_set() == set(streamed)
        assert len(collecting.results) == 1  # on_finish exactly once
        serial = Detector(kb_rules, engine="batch").run(kb_graph)
        assert set(streamed) == serial.violations.as_set()

    def test_stream_can_be_abandoned(self, kb_graph, kb_rules):
        detector = Detector(kb_rules, engine="parallel", processors=4, options=_options())
        stream = detector.stream(kb_graph)
        first = next(stream)
        stream.close()  # generator close must terminate the worker pool
        assert first is not None


# ------------------------------------------------------------ plan-guided split


class TestPlanGuidedSplitting:
    def test_subsumes_raw_predicate(self):
        # whenever the raw test splits, the planned test (workload = max of
        # estimate and actual) splits too
        for adjacency in (10, 100, 1000, 10_000):
            for estimate in (0.0, 5.0, 500.0, 1e6):
                if should_split(adjacency, 1, 8, 60.0):
                    assert should_split_planned(estimate, adjacency, 1, 8, 60.0)

    def test_large_subtree_small_scan_splits(self):
        # raw predicate refuses (scan of 8 is tiny); the subtree estimate knows better
        assert not should_split(8, 1, 8, 60.0)
        assert should_split_planned(10_000.0, 8, 1, 8, 60.0)

    def test_single_processor_never_splits(self):
        assert not should_split_planned(1e9, 1000, 0, 1, 60.0)

    def test_simulated_results_unchanged_by_decision_source(self, kb_graph, kb_rules):
        # the split decision only moves simulated charges around — the
        # violations of splitting and non-splitting runs stay byte-identical
        from repro.detect.parallel.balancing import BalancingPolicy

        on = Detector(kb_rules, engine="parallel", processors=8).run(kb_graph)
        off = Detector(
            kb_rules, engine="parallel", processors=8,
            options=DetectionOptions(policy=BalancingPolicy.no_splitting()),
        ).run(kb_graph)
        assert on.violations.to_json() == off.violations.to_json()


# ------------------------------------------------------------ plan persistence


class TestPlanPersistence:
    def test_save_load_round_trip(self, kb_graph, kb_rules, tmp_path):
        plans = compile_plans(kb_graph, kb_rules)
        path = tmp_path / "plans.json"
        save_plans(plans, path)
        loaded = load_plans(path, kb_rules)
        assert [p.to_dict() for p in loaded] == [p.to_dict() for p in plans]

    def test_document_round_trip(self, kb_graph, kb_rules):
        plans = compile_plans(kb_graph, kb_rules)
        document = json.loads(json.dumps(plans_to_document(plans)))
        rebuilt = plans_from_document(document, kb_rules)
        for original, copy in zip(plans, rebuilt):
            assert copy.order == original.order
            assert copy.estimated_unit_cost(0) == original.estimated_unit_cost(0)
            assert copy.statistics.to_dict() == original.statistics.to_dict()

    def test_plan_from_dict_checks_rule(self, kb_graph, kb_rules):
        from repro.errors import SerializationError

        plans = compile_plans(kb_graph, kb_rules)
        rules = list(kb_rules)
        with pytest.raises(SerializationError):
            MatchPlan.from_dict(plans[0].to_dict(), rules[1])

    def test_detector_plans_file_matches_compiled(self, kb_graph, kb_rules, tmp_path):
        path = tmp_path / "plans.json"
        save_plans(compile_plans(kb_graph, kb_rules), path)
        from_file = Detector(kb_rules, engine="batch", plans_file=str(path)).run(kb_graph)
        compiled = Detector(kb_rules, engine="batch").run(kb_graph)
        assert from_file.violations.to_json() == compiled.violations.to_json()
        assert from_file.cost == compiled.cost

    def test_process_workers_accept_plan_documents(self, kb_graph, kb_rules):
        # the spawn payload ships plans as documents; reconstruct one and
        # check the runtime round-trip the workers perform
        plans = compile_plans(kb_graph, kb_rules)
        runtime = ExecutionRuntime(
            rules=list(kb_rules),
            plans=plans,
            use_literal_pruning=True,
            shards=ShardedStore.single(kb_graph),
        )
        import tempfile

        payload = runtime.payload(tempfile.mkdtemp(prefix="repro-test-spool-"))
        rebuilt = ExecutionRuntime.from_payload(payload)
        assert [p.order for p in rebuilt.plans] == [p.order for p in plans]
        assert [r.name for r in rebuilt.rules] == [r.name for r in kb_rules]

    def test_spawn_start_method_parity(self, kb_graph, kb_rules):
        serial = Detector(kb_rules, engine="batch").run(kb_graph)
        spawned = Detector(
            kb_rules,
            engine="parallel",
            processors=2,
            options=_options(start_method="spawn"),
        ).run(kb_graph)
        assert spawned.violations.to_json() == serial.violations.to_json()


# ------------------------------------------------------------ service job pool


class TestDetectionJobPool:
    def test_admission_and_release(self):
        pool = DetectionJobPool(max_jobs=1)
        release = threading.Event()

        def slow():
            yield {"type": "violation"}
            release.wait(timeout=5)
            yield {"type": "summary"}

        stream = pool.run_stream(slow())
        assert next(stream) == {"type": "violation"}
        with pytest.raises(PoolSaturatedError):
            pool.run_stream(iter([]))
        assert pool.active_jobs() == 1
        release.set()
        assert [r["type"] for r in stream] == ["summary"]
        deadline = time.monotonic() + 5
        while pool.active_jobs() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool.active_jobs() == 0
        list(pool.run_stream(iter([{"type": "summary"}])))  # slot is free again

    def test_consumer_close_cancels_producer(self):
        pool = DetectionJobPool(max_jobs=1)
        produced = []

        def endless():
            i = 0
            while True:
                produced.append(i)
                yield {"type": "violation", "i": i}
                i += 1

        stream = pool.run_stream(endless())
        next(stream)
        stream.close()
        deadline = time.monotonic() + 5
        while pool.active_jobs() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool.active_jobs() == 0  # slot reclaimed after cancellation

    def test_producer_error_becomes_error_record(self):
        pool = DetectionJobPool(max_jobs=2)

        def broken():
            yield {"type": "violation"}
            raise RuntimeError("kernel exploded")

        records = list(pool.run_stream(broken()))
        assert records[0]["type"] == "violation"
        assert records[-1]["type"] == "error"
        assert "kernel exploded" in records[-1]["error"]

    def test_rejects_invalid_size(self):
        with pytest.raises(ServiceError):
            DetectionJobPool(max_jobs=0)


class TestServiceAdmissionControl:
    @pytest.fixture
    def service(self):
        svc = DetectionService(port=0, max_jobs=2)
        svc.manager.register_catalog("example", example_rules())
        svc.registry.register("fig1", figure1_g2())
        with svc:
            yield svc

    def test_health_reports_pool(self, service):
        client = ServiceClient(service.url)
        health = client.health()
        assert health["jobs"] == {"active": 0, "max": 2}

    def test_saturated_pool_returns_429(self, service):
        client = ServiceClient(service.url)
        # hold both slots so the next request must be refused up front
        assert service.manager.job_pool._slots.acquire(blocking=False)
        assert service.manager.job_pool._slots.acquire(blocking=False)
        try:
            with pytest.raises(ServiceError) as excinfo:
                list(client.stream_detect("fig1", catalog="example"))
            assert "429" in str(excinfo.value)
            assert "saturated" in str(excinfo.value)
        finally:
            service.manager.job_pool._slots.release()
            service.manager.job_pool._slots.release()
        # pool drained: the same request succeeds now
        records = list(client.stream_detect("fig1", catalog="example"))
        assert records[-1]["type"] == "summary"

    def test_process_execution_over_http(self, service):
        client = ServiceClient(service.url)
        simulated = client.detect("fig1", catalog="example")
        processes = client.detect(
            "fig1", catalog="example", engine="parallel", processors=2, execution="processes"
        )
        assert {str(v) for v in processes.violations} == {str(v) for v in simulated.violations}
        assert processes.summary["algorithm"] == "PDect"

    def test_request_validates_execution(self):
        with pytest.raises(ServiceError):
            parse_detect_request({"catalog": "example", "execution": "warp"})
        request = parse_detect_request({"catalog": "example", "execution": "processes"})
        assert request.execution == "processes"

    def test_kernel_start_failure_maps_to_400(self, service, monkeypatch):
        # a detection that fails before streaming anything (here: a bogus
        # start method raising at kernel start on the job thread) must come
        # back as a JSON error response, not 200 + an in-band error record
        monkeypatch.setenv("REPRO_EXECUTION_START_METHOD", "bogus")
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            list(
                client.stream_detect(
                    "fig1", catalog="example", engine="parallel",
                    processors=2, execution="processes",
                )
            )
        assert "400" in str(excinfo.value)
        assert "failed to start" in str(excinfo.value)
        deadline = time.monotonic() + 5
        while service.manager.job_pool.active_jobs() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.manager.job_pool.active_jobs() == 0  # slot reclaimed
