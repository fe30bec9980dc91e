"""The real multi-process backend, ``execution="processes"``.

Its answers are held to the naive reference by the generated differential
of ``tests/test_one_oracle.py``.  Here: PDect's work counts equal Dect's
at any worker count, forked or spawned; the start method follows the
thread count; ``DetectionBudget`` early cancellation and streaming under
real concurrency; the pickled runtime a spawned worker receives; and the
service's bounded detection job pool (429 admission control).
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core.builtin_rules import example_rules
from repro.datasets.figure1 import figure1_g2
from repro.datasets.kb import KBConfig, knowledge_graph
from repro.datasets.rules import benchmark_rules
from repro.detect import DetectionOptions, Detector
from repro.detect.parallel.balancing import should_split_planned
from repro.detect.parallel.executor import ExecutionRuntime
from repro.errors import ServiceError, SessionError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateGenerator
from repro.matching.plan import compile_plans
from repro.service import DetectionService, ServiceClient, parse_detect_request
from repro.service.jobs import DetectionJobPool

_SRC = str(Path(__file__).resolve().parent.parent / "src")


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
    def test_figure1_single_process(self, kb_rules):
        graph = figure1_g2()
        serial = Detector(example_rules(), engine="batch").run(graph)
        processes = Detector(
            example_rules(), engine="parallel", processors=1, options=_options()
        ).run(graph)
        assert processes.violations.to_json() == serial.violations.to_json()

    @staticmethod
    def _counts(result) -> tuple:
        stats = result.stats
        return (
            result.cost,
            stats.candidates_examined,
            stats.expansions,
            stats.edge_checks,
            stats.literal_evaluations,
            stats.matches_emitted,
            tuple(sorted(stats.extra.items())),
        )

    @pytest.mark.parametrize("processors", (1, 2, 4))
    @pytest.mark.parametrize("start_method", ("fork", "spawn"))
    def test_work_counts_do_not_depend_on_the_start_method(
        self, kb_graph, kb_rules, start_method, processors, force_start_method
    ):
        # the parent runs Dect's first-step scans and the workers drain the
        # seeds with Dect's loop, so PDect's aggregate cost and statistics are
        # Dect's at every worker count, forked or spawned
        serial = Detector(kb_rules, engine="batch").run(kb_graph)
        force_start_method(start_method)
        processes = Detector(kb_rules, engine="parallel", processors=processors, options=_options()).run(kb_graph)
        assert len(serial.violations) > 0
        assert self._counts(processes) == self._counts(serial)
        assert processes.violations.to_json() == serial.violations.to_json()
        assert (processes.algorithm, processes.processors, processes.stopped_early) == ("PDect", processors, False)

    def test_back_to_back_runs_keep_forking(self):
        # a run starts no thread (its channels are pipes), during the run or
        # after it, so the next run from the same single-threaded caller forks
        # again; the graph and rules are this module's kb_graph and kb_rules,
        # in a fresh interpreter
        probe = (
            "import threading\n"
            "from repro.datasets.kb import KBConfig, knowledge_graph\n"
            "from repro.datasets.rules import benchmark_rules\n"
            "from repro.detect import DetectionOptions, Detector\n"
            "from repro.detect.parallel import executor\n"
            "resolve = executor.resolve_start_method\n"
            "methods = []\n"
            "executor.resolve_start_method = lambda: methods.append(resolve()) or methods[-1]\n"
            "graph = knowledge_graph(KBConfig(name='kb-processes', num_entities=150, num_entity_types=4,\n"
            "    num_value_relations=4, num_link_relations=3, values_per_entity=3, links_per_entity=2.0,\n"
            "    error_rate=0.08, seed=8, hub_link_fraction=0.4, num_hubs=2))\n"
            "rules = benchmark_rules(graph, count=12, max_diameter=4, seed=2)\n"
            "options = DetectionOptions(execution='processes')\n"
            "during = []\n"
            "for _ in range(5):\n"
            "    before = threading.active_count()\n"
            "    for _violation in Detector(rules, engine='parallel', processors=2, options=options).stream(graph):\n"
            "        during.append(threading.active_count())\n"
            "    print(methods[-1], before, max(during), threading.active_count())\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120, check=True
        )
        assert done.stdout.splitlines() == ["fork 1 1 1"] * 5, done.stdout + done.stderr

    def test_worker_traces_account_work(self, kb_graph, kb_rules):
        result = Detector(
            kb_rules, engine="parallel", processors=4, options=_options()
        ).run(kb_graph)
        assert len(result.worker_traces) == 4
        assert sum(t.work_units_processed for t in result.worker_traces) > 0
        assert result.cost > 0

    def test_execution_processes_implies_parallel_engine(self):
        # one processor: without execution="processes", auto would pick Dect
        detector = Detector(example_rules(), processors=1, options=_options())
        result = detector.run(figure1_g2())
        assert (result.algorithm, result.processors) == ("PDect", 1)

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

    def test_start_method_follows_the_thread_count(self):
        # a fresh interpreter, so no thread another test left behind counts
        probe = (
            "import threading\n"
            "from repro.detect.parallel.executor import resolve_start_method\n"
            "print(resolve_start_method())\n"
            "release = threading.Event()\n"
            "thread = threading.Thread(target=release.wait)\n"
            "thread.start()\n"
            "print(resolve_start_method())\n"
            "release.set()\n"
            "thread.join()\n"
            "print(resolve_start_method())\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60, check=True
        )
        assert done.stdout.split() == ["fork", "spawn", "fork"]


# -------------------------------------------------------- incremental parity


class TestIncrementalParity:
    def test_policy_variants_identical(self, kb_graph, kb_rules, kb_delta):
        from repro.detect.parallel.balancing import BalancingPolicy

        expected = Detector(kb_rules, engine="incremental").run_incremental(kb_graph, kb_delta)
        for policy in (BalancingPolicy.hybrid(), BalancingPolicy.none()):
            result = Detector(
                kb_rules, engine="parallel", processors=4, options=_options(policy=policy)
            ).run_incremental(kb_graph, kb_delta)
            assert result.delta == expected.delta
            assert result.algorithm == f"PIncDect{policy.variant_suffix()}"
            assert result.neighborhood_size and result.neighborhood_size > 0
        assert expected.delta.total_changes() > 0


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


# ------------------------------------------------------------------ streaming


class TestStreaming:
    def test_stream_yields_the_serial_answer_then_sets_last_result(self, kb_graph, kb_rules):
        detector = Detector(kb_rules, engine="parallel", processors=4, options=_options())
        streamed = list(detector.stream(kb_graph))
        serial = Detector(kb_rules, engine="batch").run(kb_graph)
        assert set(streamed) == serial.violations.as_set()
        # the result is set once the stream is exhausted, and counts what it yielded
        assert detector.last_result.violation_count() == len(streamed)

    def test_stream_can_be_abandoned(self, kb_graph, kb_rules):
        detector = Detector(kb_rules, engine="parallel", processors=4, options=_options())
        stream = detector.stream(kb_graph)
        first = next(stream)
        stream.close()  # generator close must terminate the worker pool
        assert first is not None


# ------------------------------------------------------------ plan-guided split


class TestPlanGuidedSplitting:
    def test_subsumes_raw_predicate(self):
        # whenever the raw test (estimate 0.0: the adjacency alone) splits,
        # the planned test (workload = max of estimate and actual) splits too
        for adjacency in (10, 100, 1000, 10_000):
            for estimate in (0.0, 5.0, 500.0, 1e6):
                if should_split_planned(0.0, adjacency, 1, 8, 60.0):
                    assert should_split_planned(estimate, adjacency, 1, 8, 60.0)

    def test_large_subtree_small_scan_splits(self):
        # raw predicate refuses (scan of 8 is tiny); the subtree estimate knows better
        assert not should_split_planned(0.0, 8, 1, 8, 60.0)
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


# ------------------------------------------------------------ spawned plans


class TestSpawnedPlans:
    def test_process_workers_accept_pickled_plans(self, kb_graph, kb_rules, tmp_path):
        # a spawn worker unpickles the runtime with its images spooled:
        # the plans arrive as they are, each with its rule, without their generated code
        plans = compile_plans(kb_graph, kb_rules)
        runtime = ExecutionRuntime(plans=plans, image=kb_graph)
        rebuilt = pickle.loads(pickle.dumps(runtime.spooled(str(tmp_path))))
        assert [p.order for p in rebuilt.plans] == [p.order for p in plans]
        assert [p.rule for p in rebuilt.plans] == list(kb_rules)
        assert rebuilt.image == str(tmp_path / "image.json")


# ------------------------------------------------------------ service job pool


def violating_areas(areas: int) -> Graph:
    """Every area violates φ2 (female + male ≠ total): one violation record per area."""
    graph = Graph("areas")
    for index in range(areas):
        graph.add_node(f"area{index}", "area")
        graph.add_node(f"f{index}", "integer", {"val": 100 + index})
        graph.add_node(f"m{index}", "integer", {"val": 200 + index})
        graph.add_node(f"t{index}", "integer", {"val": 999})
        graph.add_edge(f"area{index}", f"f{index}", "femalePopulation")
        graph.add_edge(f"area{index}", f"m{index}", "malePopulation")
        graph.add_edge(f"area{index}", f"t{index}", "populationTotal")
    return graph


class TestDetectionJobPool:
    """A stream holds one slot of the pool while its handler thread runs it."""

    @pytest.fixture
    def service(self):
        svc = DetectionService(port=0, max_jobs=1)
        svc.manager.register_catalog("example", example_rules())
        svc.registry.register("fig1", figure1_g2())
        svc.registry.register("areas", violating_areas(2000))
        with svc:
            yield svc

    @staticmethod
    def hold_after_first_record(monkeypatch, manager, release: threading.Event) -> None:
        """Make every detection stream wait for ``release`` once its first record is out."""
        stream_detection = manager.stream_detection

        def held(name, request):
            records, trace_id = stream_detection(name, request)

            def generate():
                try:
                    for index, record in enumerate(records):
                        yield record
                        if index == 0:
                            assert release.wait(timeout=30)
                finally:
                    records.close()

            return generate(), trace_id

        monkeypatch.setattr(manager, "stream_detection", held)

    def test_admission_and_release(self, service, monkeypatch):
        release = threading.Event()
        self.hold_after_first_record(monkeypatch, service.manager, release)
        client = ServiceClient(service.url)
        stream = client.stream_detect("fig1", catalog="example")
        assert next(stream)["type"] == "violation"
        with pytest.raises(ServiceError, match="429"):
            list(client.stream_detect("fig1", catalog="example"))
        assert client.health()["jobs"]["active"] == 1
        release.set()
        assert [record["type"] for record in stream] == ["summary"]
        # the slot is free before the stream's connection closes
        assert client.health()["jobs"]["active"] == 0
        assert client.detect("fig1", catalog="example").summary["type"] == "summary"

    def test_a_client_hanging_up_stops_the_run_and_frees_its_slot(self, service, monkeypatch):
        release = threading.Event()
        self.hold_after_first_record(monkeypatch, service.manager, release)
        client = ServiceClient(service.url)
        before = obs.metrics().total("repro_detect_violations_total")
        stream = client.stream_detect("areas", catalog="example")
        assert next(stream)["type"] == "violation"
        stream.close()  # hangs up: the server's next writes fail
        release.set()
        deadline = time.monotonic() + 10
        while client.health()["jobs"]["active"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert client.health()["jobs"]["active"] == 0
        # closing the generator stopped the kernel before it found them all
        assert obs.metrics().total("repro_detect_violations_total") - before < 2000

    def test_a_failure_mid_stream_ends_with_an_error_record(self, service, monkeypatch):
        from repro.service import jobs

        encoded = []
        violation_record = jobs.violation_record

        def failing(violation, introduced):
            encoded.append(violation)
            if len(encoded) == 2:
                raise RuntimeError("kernel exploded")
            return violation_record(violation, introduced=introduced)

        monkeypatch.setattr(jobs, "violation_record", failing)
        client = ServiceClient(service.url)
        stream = client.stream_detect("areas", catalog="example")
        assert next(stream)["type"] == "violation"
        with pytest.raises(ServiceError, match="kernel exploded"):
            next(stream)
        assert client.health()["jobs"]["active"] == 0

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

    def test_processor_counts_are_capped(self, service, monkeypatch):
        # one request must not be able to start more processes than the
        # server has CPUs, nor build an arbitrarily large simulated cluster
        from repro.service import protocol

        def admit(count: int, execution: str = "processes"):
            document = {"catalog": "example", "execution": execution, "processors": count}
            return protocol.admit_detect_request(parse_detect_request(document))

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        with pytest.raises(ServiceError, match="CPUs"):
            admit(cpus + 1)
        assert admit(cpus).processors == cpus
        cap = protocol.MAX_SIMULATED_PROCESSORS
        assert cap > 20
        with pytest.raises(ServiceError, match="simulated"):
            admit(cap + 1, "simulated")
        assert admit(cap, "simulated").processors == cap
        # parsing alone keeps any positive count: recovery re-reads what an
        # earlier server accepted (see test_durability)
        document = {"catalog": "example", "execution": "processes", "processors": cpus + 1}
        assert parse_detect_request(document).processors == cpus + 1

        monkeypatch.setattr(protocol, "usable_cpus", lambda: 2)
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client.detect("fig1", catalog="example", engine="parallel", processors=3, execution="processes")
        assert "400" in str(excinfo.value)
        reply = client.detect("fig1", catalog="example", engine="parallel", processors=2, execution="processes")
        assert reply.summary["processors"] == 2
        assert reply.violations

    def test_an_omitted_worker_count_is_capped_too(self, service, monkeypatch):
        # a processes request without a count takes the detector's default
        # (8), clamped to the CPUs: it never starts more workers than an
        # explicit count may ask for
        from repro.detect.parallel import executor
        from repro.service import protocol

        started = []
        start = executor._Crew.start

        def record(crew, index, epoch, pending):
            started.append(index)
            start(crew, index, epoch, pending)

        monkeypatch.setattr(executor._Crew, "start", record)
        monkeypatch.setattr(protocol, "usable_cpus", lambda: 1)
        client = ServiceClient(service.url)
        reply = client.detect("fig1", catalog="example", engine="parallel", execution="processes")
        assert reply.summary["processors"] == 1
        assert started == [0], "one worker slot, started once"
        assert {str(v) for v in reply.violations} == {
            str(v) for v in client.detect("fig1", catalog="example").violations
        }

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        from repro.service import protocol

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert protocol.usable_cpus() == 3
        # platforms without affinity masks fall back to the CPU count
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert protocol.usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert protocol.usable_cpus() == 1

    def test_kernel_start_failure_maps_to_400(self, service, force_start_method):
        # a detection that fails before streaming anything (here: a bogus
        # start method raising at kernel start on the job thread) must come
        # back as a JSON error response, not 200 + an in-band error record
        force_start_method("bogus")
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
