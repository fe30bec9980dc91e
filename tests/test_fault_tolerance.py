"""Fault-tolerance suite: supervision, recovery parity, and degradation.

The contract under test: a worker SIGKILLed mid-run must not change the
answer.  The parent re-executes the dead worker's unconfirmed units (on a
respawned replacement or the survivors) and its dedup sets absorb the
duplicates, so the recovered run's ``ViolationSet`` is **byte-identical**
to the serial oracle — under fork and spawn, across storage backends.
When the restart budget is spent or a unit
keeps killing its worker, the run *degrades* (finishes on the parent's
serial path, ``degraded=True``) instead of failing.

Every fault here is injected deterministically through ``REPRO_FAULTS``
(:mod:`repro.testing.faults`); nothing in this file kills processes by
timing races.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from repro import obs
from repro.core.ngd import RuleSet
from repro.datasets.kb import KBConfig, knowledge_graph
from repro.datasets.rules import benchmark_rules
from repro.detect import DetectionOptions, Detector, observers
from repro.detect.dect import iter_dect
from repro.detect.incdect import iter_inc_dect
from repro.detect.observers import DetectionBudget, drain
from repro.detect.parallel import executor, iter_p_dect
from repro.detect.parallel.workunits import WorkUnit, expand_work_unit, first_step_seeds
from repro.errors import ReproError, ServiceError, SessionError
from repro.graph.graph import Graph
from repro.graph.updates import BatchUpdate, UpdateGenerator
from repro.matching.candidates import MatchStatistics
from repro.matching.plan import compile_plans
from repro.service import DetectionService, ServiceClient
from repro.service.protocol import error_record, parse_detect_request
from repro.service.server import FAULT_TOLERANCE_COUNTERS
from repro.storage.wal import WriteAheadLog
from repro.testing.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    resolve_fault_plan,
    wal_fault_injector,
)


def fault_tolerance_counters() -> dict:
    """The supervision tallies ``/health`` reports, totalled from the metrics registry."""
    registry = obs.metrics()
    return {key: registry.total(family) for key, family in FAULT_TOLERANCE_COUNTERS.items()}


@pytest.fixture(scope="module")
def kb_graph():
    config = KBConfig(
        name="kb-faults",
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
    return UpdateGenerator(seed=21).generate(kb_graph, 80, insert_ratio=0.5)


@pytest.fixture(scope="module")
def serial_result(kb_graph, kb_rules):
    return Detector(kb_rules, engine="batch").run(kb_graph)


@pytest.fixture(scope="module")
def kb_match_deletions(kb_graph, kb_rules, serial_result):
    """A ΔG that deletes every edge of a few violating matches: ΔVio⁻ is found only by searching G."""
    patterns = {rule.name: rule.pattern for rule in kb_rules}
    delta = BatchUpdate()
    deleted: set = set()
    for violation in sorted(serial_result.violations, key=str):
        edges = patterns[violation.rule].edges()
        binding = violation.mapping()
        keys = [(binding[edge.source], binding[edge.target], edge.label) for edge in edges]
        if len(edges) < 2 or deleted.intersection(keys):
            continue
        for key in keys:
            delta.delete(*key)
        deleted.update(keys)
        if len(deleted) > 12:
            break
    return delta


def _options(**overrides) -> DetectionOptions:
    return DetectionOptions(execution="processes", **overrides)


# ------------------------------------------------------------ faults module


class TestFaultPlan:
    def test_parse_round_trips(self):
        text = "worker_death:worker=0,epoch=0,after=5;wal_fsync:after=2,times=3"
        plan = FaultPlan.parse(text)
        assert FaultPlan.parse(plan.to_text()).to_text() == plan.to_text()
        assert len(plan.specs) == 2

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ReproError):
            FaultPlan.parse("meteor_strike")

    def test_unknown_field_is_refused(self):
        with pytest.raises(ReproError):
            FaultPlan.parse("worker_death:wrkr=0")

    def test_trigger_point_is_deterministic(self):
        a = FaultSpec(kind="worker_death", worker=1, seed=7)
        b = FaultSpec(kind="worker_death", worker=1, seed=7)
        assert a.trigger_point() == b.trigger_point()
        assert FaultSpec(kind="worker_death", after=5).trigger_point() == 5

    def test_worker_and_epoch_selectors(self):
        plan = FaultPlan.parse("worker_death:worker=1,epoch=0")
        assert plan.for_worker(1, 0) is not None
        assert plan.for_worker(0, 0) is None
        assert plan.for_worker(1, 1) is None
        # no selectors: matches every incarnation
        broad = FaultPlan.parse("worker_death")
        assert broad.for_worker(3, 2) is not None

    def test_resolution_defaults_to_off(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert resolve_fault_plan() is None
        assert wal_fault_injector() is None
        monkeypatch.setenv(FAULTS_ENV, "wal_fsync:after=1")
        assert wal_fault_injector() is not None
        assert resolve_fault_plan().for_worker(0, 0) is None  # wal-only plan


class TestSupervisionSettings:
    def test_a_spawned_worker_runs_with_the_parents_heartbeat_period(
        self, kb_graph, kb_rules, serial_result, monkeypatch, force_start_method
    ):
        # the period travels in the worker's start arguments: with heartbeats
        # off, a worker slowed on every seed stays silent past the timeout and
        # is replaced; with the 1 s default it would have reported in time.
        # The timeout must exceed that default plus a spawn's start-up, so
        # the test waits it out: its 2.5 s are the check
        before = fault_tolerance_counters()
        monkeypatch.setenv(FAULTS_ENV, "slow_worker:worker=0,epoch=0,after=1,delay=0.05")
        monkeypatch.setattr(executor, "HEARTBEAT_PERIOD_SECONDS", 0.0)
        monkeypatch.setattr(executor, "HEARTBEAT_TIMEOUT_SECONDS", 2.5)
        force_start_method("spawn")
        result = Detector(kb_rules, engine="parallel", processors=2, options=_options()).run(kb_graph)
        assert fault_tolerance_counters()["worker_restarts"] > before["worker_restarts"]
        assert result.violations.to_json() == serial_result.violations.to_json()


# --------------------------------------------------- crash recovery parity


class TestCrashRecoveryParity:
    def test_sigkilled_worker_is_byte_identical_fork(
        self, kb_graph, kb_rules, monkeypatch, force_start_method
    ):
        serial = Detector(kb_rules, engine="batch").run(kb_graph)
        monkeypatch.setenv(FAULTS_ENV, "worker_death:worker=0,epoch=0,after=3")
        force_start_method("fork")
        result = Detector(kb_rules, engine="parallel", processors=2, options=_options()).run(kb_graph)
        assert len(serial.violations) > 0
        assert result.violations.to_json() == serial.violations.to_json()
        assert not result.degraded
        assert not result.stopped_early

    def test_sigkilled_worker_is_byte_identical_spawn(
        self, kb_graph, kb_rules, serial_result, monkeypatch, force_start_method
    ):
        monkeypatch.setenv(FAULTS_ENV, "worker_death:worker=0,epoch=0,after=3")
        force_start_method("spawn")
        result = Detector(kb_rules, engine="parallel", processors=2, options=_options()).run(kb_graph)
        assert result.violations.to_json() == serial_result.violations.to_json()
        assert not result.degraded

    def test_a_run_without_heartbeats_is_byte_identical(self, kb_graph, kb_rules, serial_result, monkeypatch):
        monkeypatch.setattr(executor, "HEARTBEAT_PERIOD_SECONDS", 0.0)
        result = Detector(kb_rules, engine="parallel", processors=2, options=_options()).run(kb_graph)
        assert result.violations.to_json() == serial_result.violations.to_json()
        assert not result.degraded

    def test_restarts_are_counted(self, kb_graph, kb_rules, serial_result, monkeypatch):
        before = fault_tolerance_counters()
        monkeypatch.setenv(FAULTS_ENV, "worker_death:worker=0,epoch=0,after=2")
        result = Detector(
            kb_rules, engine="parallel", processors=2, options=_options()
        ).run(kb_graph)
        after = fault_tolerance_counters()
        assert result.violations.to_json() == serial_result.violations.to_json()
        assert after["worker_restarts"] > before["worker_restarts"]
        assert after["units_retried"] > before["units_retried"]

    def test_incremental_crash_parity(self, kb_graph, kb_rules, kb_delta, monkeypatch):
        serial = Detector(kb_rules, engine="incremental").run_incremental(
            kb_graph, kb_delta
        )
        monkeypatch.setenv(FAULTS_ENV, "worker_death:worker=0,epoch=0,after=3")
        result = Detector(
            kb_rules, engine="parallel", processors=2, options=_options()
        ).run_incremental(kb_graph, kb_delta)
        assert serial.total_changes() > 0
        assert result.introduced().to_json() == serial.introduced().to_json()
        assert result.removed().to_json() == serial.removed().to_json()
        assert not result.degraded

    def test_incremental_crash_parity_spawn(self, kb_graph, kb_rules, kb_delta, monkeypatch, force_start_method):
        # a spawned replacement reloads both spooled images and re-runs the
        # dead worker's unfinished pivots in their own direction's graph
        serial = Detector(kb_rules, engine="incremental").run_incremental(kb_graph, kb_delta)
        before = fault_tolerance_counters()
        monkeypatch.setenv(FAULTS_ENV, "worker_death:worker=0,epoch=0,after=3")
        force_start_method("spawn")
        result = Detector(
            kb_rules, engine="parallel", processors=2, options=_options()
        ).run_incremental(kb_graph, kb_delta)
        assert fault_tolerance_counters()["worker_restarts"] > before["worker_restarts"]
        assert result.introduced().to_json() == serial.introduced().to_json()
        assert result.removed().to_json() == serial.removed().to_json()
        assert not result.degraded


# -------------------------------------------------- degradation and quarantine


class TestGracefulDegradation:
    def test_poison_unit_is_quarantined(
        self, kb_graph, kb_rules, serial_result, monkeypatch
    ):
        # worker 0 dies on its first unit in *every* incarnation: the unit
        # exhausts its retry cap, is quarantined, and completes on the
        # parent's serial path — with the exact same answer
        monkeypatch.setenv(FAULTS_ENV, "worker_death:worker=0,after=1")
        result = Detector(
            kb_rules, engine="parallel", processors=2, options=_options()
        ).run(kb_graph)
        assert result.violations.to_json() == serial_result.violations.to_json()
        assert result.degraded
        assert result.stop_reason == "units_quarantined"
        assert not result.stopped_early

    def test_restart_budget_exhaustion_degrades(
        self, kb_graph, kb_rules, serial_result, monkeypatch
    ):
        before = fault_tolerance_counters()
        monkeypatch.setenv(FAULTS_ENV, "worker_death:after=2")
        monkeypatch.setattr(executor, "WORKER_RESTARTS", 0)
        result = Detector(
            kb_rules, engine="parallel", processors=2, options=_options()
        ).run(kb_graph)
        after = fault_tolerance_counters()
        assert result.violations.to_json() == serial_result.violations.to_json()
        assert result.degraded
        assert after["degraded_runs"] > before["degraded_runs"]

    def test_incremental_poison_unit_is_quarantined(self, kb_graph, kb_rules, kb_delta, monkeypatch):
        # the serial tail searches each unit in its own direction's graph:
        # insertion pivots in G ⊕ ΔG, deletion pivots in G
        reference = Detector(kb_rules, engine="incremental").run_incremental(kb_graph, kb_delta)
        monkeypatch.setenv(FAULTS_ENV, "worker_death:worker=0,after=1")
        result = Detector(
            kb_rules, engine="parallel", processors=2, options=_options()
        ).run_incremental(kb_graph, kb_delta)
        assert result.introduced().to_json() == reference.introduced().to_json()
        assert result.removed().to_json() == reference.removed().to_json()
        assert result.degraded
        assert result.stop_reason == "units_quarantined"
        assert not result.stopped_early

    @pytest.mark.parametrize("delta_fixture", ("kb_delta", "kb_match_deletions"))
    def test_incremental_restart_budget_exhaustion_degrades(
        self, kb_graph, kb_rules, delta_fixture, request, monkeypatch
    ):
        delta = request.getfixturevalue(delta_fixture)
        reference = Detector(kb_rules, engine="incremental").run_incremental(kb_graph, delta)
        assert reference.total_changes() > 0
        monkeypatch.setenv(FAULTS_ENV, "worker_death:after=2")
        monkeypatch.setattr(executor, "WORKER_RESTARTS", 0)
        result = Detector(
            kb_rules, engine="parallel", processors=2, options=_options()
        ).run_incremental(kb_graph, delta)
        assert result.introduced().to_json() == reference.introduced().to_json()
        assert result.removed().to_json() == reference.removed().to_json()
        assert result.degraded

    def test_hung_worker_is_recovered_by_heartbeat(
        self, kb_graph, kb_rules, serial_result, monkeypatch
    ):
        # the run waits out the timeout once; a healthy worker the short
        # timeout kills by mistake only re-runs its seeds, so the answer holds
        monkeypatch.setenv(FAULTS_ENV, "hang_worker:worker=0,epoch=0,after=2")
        monkeypatch.setattr(executor, "HEARTBEAT_PERIOD_SECONDS", 0.1)
        monkeypatch.setattr(executor, "HEARTBEAT_TIMEOUT_SECONDS", 0.5)
        result = Detector(
            kb_rules, engine="parallel", processors=2, options=_options()
        ).run(kb_graph)
        assert result.violations.to_json() == serial_result.violations.to_json()

    def test_hung_worker_is_recovered_by_heartbeat_spawn(
        self, kb_graph, kb_rules, serial_result, monkeypatch, force_start_method
    ):
        before = fault_tolerance_counters()
        monkeypatch.setenv(FAULTS_ENV, "hang_worker:worker=0,epoch=0,after=2")
        monkeypatch.setattr(executor, "HEARTBEAT_PERIOD_SECONDS", 0.1)
        monkeypatch.setattr(executor, "HEARTBEAT_TIMEOUT_SECONDS", 0.5)
        force_start_method("spawn")
        result = Detector(
            kb_rules, engine="parallel", processors=2, options=_options()
        ).run(kb_graph)
        # the silent worker was killed and its seeds re-run on a replacement
        assert fault_tolerance_counters()["worker_restarts"] > before["worker_restarts"]
        assert result.violations.to_json() == serial_result.violations.to_json()

    def test_incremental_hung_worker_is_recovered_by_heartbeat(
        self, kb_graph, kb_rules, kb_delta, monkeypatch
    ):
        reference = Detector(kb_rules, engine="incremental").run_incremental(kb_graph, kb_delta)
        before = fault_tolerance_counters()
        monkeypatch.setenv(FAULTS_ENV, "hang_worker:worker=0,epoch=0,after=2")
        monkeypatch.setattr(executor, "HEARTBEAT_PERIOD_SECONDS", 0.1)
        monkeypatch.setattr(executor, "HEARTBEAT_TIMEOUT_SECONDS", 0.5)
        result = Detector(
            kb_rules, engine="parallel", processors=2, options=_options()
        ).run_incremental(kb_graph, kb_delta)
        assert fault_tolerance_counters()["worker_restarts"] > before["worker_restarts"]
        assert result.introduced().to_json() == reference.introduced().to_json()
        assert result.removed().to_json() == reference.removed().to_json()

    def test_stuck_worker_shutdown_is_bounded(self, kb_graph, kb_rules, monkeypatch):
        # worker 0 hangs (ignoring SIGTERM) while the cost budget stops the
        # run: shutdown must escalate join -> terminate -> kill within the
        # configured grace instead of waiting on the hung worker forever
        monkeypatch.setenv(FAULTS_ENV, "hang_worker:worker=0,after=1")
        monkeypatch.setattr(executor, "SHUTDOWN_GRACE_SECONDS", 1.0)
        started = time.monotonic()
        result = Detector(
            kb_rules,
            engine="parallel",
            processors=2,
            options=_options(max_cost=5.0),
        ).run(kb_graph)
        elapsed = time.monotonic() - started
        assert result.stopped_early
        assert result.stop_reason == "max_cost"
        assert elapsed < 30.0


# ------------------------------------------------------------- WAL faults


class TestWalFsyncFailure:
    def test_fsync_failure_rolls_back_and_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "wal_fsync:after=2,times=1")
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"kind": "a"})
        with pytest.raises(ReproError, match="could not be made durable"):
            wal.append({"kind": "b"})
        # the failed record never became durable; the log is still usable
        assert wal.last_lsn == 1
        wal.append({"kind": "c"})
        assert [r["kind"] for r in wal.records()] == ["a", "c"]
        wal.close()
        # the data dir is recoverable: reopen scans cleanly
        monkeypatch.delenv(FAULTS_ENV)
        reopened = WriteAheadLog(path)
        assert reopened.last_lsn == 2
        assert [r["kind"] for r in reopened.records()] == ["a", "c"]
        reopened.close()

    def test_every_append_failing_keeps_file_empty(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "wal_fsync:after=1,times=100")
        wal = WriteAheadLog(tmp_path / "wal.log")
        for _ in range(3):
            with pytest.raises(ReproError):
                wal.append({"kind": "x"})
        assert wal.last_lsn == 0
        assert list(wal.records()) == []
        wal.close()


# ------------------------------------------------------- service deadlines


def quiet_graph(nodes: int = 2000, degree: int = 20, flagged: int = 3, seed: int = 7) -> Graph:
    """A dense ``knows`` graph the path rule of :func:`quiet_rules` searches in full and finds nothing in.

    ``flagged`` extra nodes each violate the one-node rule ``flagged`` of
    :func:`flagged_then_quiet_rules`.
    """
    rng = random.Random(seed)
    graph = Graph("quiet")
    for index in range(nodes):
        graph.add_node(index, "person", {"val": rng.randint(0, 100)})
    for index in range(nodes):
        for other in rng.sample(range(nodes), degree):
            if other != index:
                graph.add_edge(index, other, "knows")
    for index in range(flagged):
        graph.add_node(f"flagged{index}", "flagged", {"val": 1000})
    return graph


_PATH_RULE = {
    "name": "path2",
    "pattern": {
        "name": "P",
        "nodes": [["x", "person"], ["y", "person"], ["z", "person"]],
        "edges": [["x", "y", "knows"], ["y", "z", "knows"]],
    },
    "premise": "",
    "conclusion": "x.val <= z.val + 1000",
}


def quiet_rules() -> RuleSet:
    """``x -knows-> y -knows-> z``, a rule that never fires on :func:`quiet_graph`."""
    return RuleSet.from_dict({"name": "quiet", "rules": [_PATH_RULE]})


def flagged_then_quiet_rules() -> RuleSet:
    """A one-node rule every flagged node violates, then the quiet path rule."""
    flagged = {
        "name": "flagged",
        "pattern": {"name": "F", "nodes": [["x", "flagged"]], "edges": []},
        "premise": "",
        "conclusion": "x.val <= 100",
    }
    return RuleSet.from_dict({"name": "flagged-then-quiet", "rules": [flagged, _PATH_RULE]})


@pytest.fixture(scope="module")
def quiet():
    """The quiet graph and its rules, with the full run's result."""
    graph, rules = quiet_graph(), quiet_rules()
    full = Detector(rules).run(graph)
    assert len(full.violations) == 0 and full.stats.candidates_examined > 500_000
    return graph, rules, full


@pytest.fixture
def quiet_service(quiet):
    graph, rules, _ = quiet
    service = DetectionService(port=0)
    service.registry.register("quiet", graph)
    service.manager.register_catalog("quiet", rules)
    service.manager.register_catalog("flagged-then-quiet", flagged_then_quiet_rules())
    with service:
        yield service


def _post(
    service: DetectionService, document: dict, path: str = "/graphs/quiet/detect"
) -> tuple[int, dict, list[dict]]:
    """POST one request document; return its status, headers and JSON lines."""
    host, port = service.address
    connection = HTTPConnection(host, port, timeout=60)
    try:
        connection.request("POST", path, body=json.dumps(document).encode())
        response = connection.getresponse()
        lines = [json.loads(line) for line in response.read().splitlines() if line.strip()]
        return response.status, dict(response.getheaders()), lines
    finally:
        connection.close()


class _Clock:
    """A stand-in for the ``time`` module whose n-th ``monotonic()`` reading is n."""

    def __init__(self) -> None:
        self.readings = 0

    def monotonic(self) -> float:
        self.readings += 1
        return float(self.readings)


class TestRequestDeadlines:
    def test_timeout_seconds_round_trips(self):
        request = parse_detect_request({"catalog": "c", "timeout_seconds": 2.5})
        assert request.timeout_seconds == 2.5
        assert parse_detect_request(request.to_document()) == request

    def test_non_positive_timeout_is_refused(self):
        with pytest.raises(ServiceError):
            parse_detect_request({"catalog": "c", "timeout_seconds": 0})

    def test_error_record_retryable_flag(self):
        assert "retryable" not in error_record("boom")
        assert error_record("boom", retryable=True)["retryable"] is True

    def test_a_deadline_before_the_first_record_stops_the_kernel(self, quiet, quiet_service):
        # the 503 is sent once the kernel has stopped: its slot is free on the
        # very next /health, and it examined a fraction of a full run's candidates
        _, _, full = quiet
        before = obs.metrics().total("repro_detect_candidates_total")
        status, headers, lines = _post(quiet_service, {"catalog": "quiet", "timeout_seconds": 0.05})
        assert status == 503
        assert headers["Retry-After"] == "1"
        assert lines == [{"error": "detection request exceeded its timeout_seconds=0.05 deadline"}]
        assert ServiceClient(quiet_service.url).health()["jobs"]["active"] == 0
        added = obs.metrics().total("repro_detect_candidates_total") - before
        assert 0 < added < full.stats.candidates_examined / 2

    def test_a_deadline_mid_stream_ends_with_a_retryable_error_record(self, quiet_service):
        document = {"catalog": "flagged-then-quiet", "timeout_seconds": 0.2}
        status, _, lines = _post(quiet_service, document)
        assert status == 200
        assert [line["type"] for line in lines] == ["violation"] * 3 + ["error"]
        assert lines[-1]["retryable"] is True
        assert lines[-1]["error"] == (
            "DeadlineExceededError('detection request exceeded its timeout_seconds=0.2 deadline')"
        )
        assert ServiceClient(quiet_service.url).health()["jobs"]["active"] == 0

    def test_a_deadline_the_run_meets_streams_to_completion(self, quiet_service):
        rules = RuleSet(list(flagged_then_quiet_rules())[:1])
        client = ServiceClient(quiet_service.url)
        timed = list(client.stream_detect("quiet", rules=rules, timeout_seconds=30.0))
        untimed = list(client.stream_detect("quiet", rules=rules))
        assert [record["type"] for record in timed] == ["violation"] * 3 + ["summary"]
        assert timed[-1]["stop_reason"] is None and not timed[-1]["stopped_early"]
        assert timed[:-1] == untimed[:-1]

    def test_a_session_base_run_ignores_the_timeout(self, quiet_service):
        # the base run of a continuous session must be complete, as under a budget
        document = {"catalog": "flagged-then-quiet", "timeout_seconds": 0.05}
        status, _, [state] = _post(quiet_service, document, path="/graphs/quiet/sessions")
        assert status == 201
        assert state["violation_count"] == 3


class TestKernelDeadlines:
    def test_options_without_a_timeout_build_no_budget(self):
        assert DetectionOptions().budget() is None
        started = time.monotonic()
        budget = DetectionOptions(timeout_seconds=2.0).budget()
        assert budget.max_cost is None and budget.max_violations is None
        assert started + 2.0 <= budget.deadline <= time.monotonic() + 2.0
        for timeout in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(SessionError):
                DetectionOptions(timeout_seconds=timeout).budget()

    def test_the_deadline_is_counted_from_the_start_of_each_run(self, quiet):
        graph, rules, _ = quiet
        detector = Detector(rules, options=DetectionOptions(timeout_seconds=0.05))
        time.sleep(0.1)
        for _ in range(2):
            result = detector.run(graph)
            assert (result.stop_reason, result.stopped_early) == ("deadline", True)
            # past the first-step scan of the 2,000 people: the run searched before it stopped
            assert result.stats.candidates_examined > 2 * graph.node_count()

    def test_an_incremental_run_stops_at_the_deadline(self, quiet, monkeypatch):
        graph, rules, _ = quiet
        delta = BatchUpdate()
        for source in range(0, 400, 2):
            if not graph.has_edge(source, source + 1, "knows"):
                delta.insert(source, source + 1, "knows")
        full = drain(iter_inc_dect(graph, rules, delta))
        clock = _Clock()
        monkeypatch.setattr(observers, "time", clock)
        result = drain(iter_inc_dect(graph, rules, delta, budget=DetectionBudget(deadline=50.0)))
        assert (result.stop_reason, result.stopped_early) == ("deadline", True)
        assert clock.readings == 50
        assert result.stats.candidates_examined < full.stats.candidates_examined

    def test_a_serial_run_tests_the_deadline_after_every_step(self, quiet, monkeypatch):
        # Dect reads the clock once after the first-step scan and once after
        # each search step, and stops at the first reading past the deadline:
        # what it billed is what the first 99 steps of its frame order bill,
        # stepped one work unit at a time on the same plan
        graph, rules, _ = quiet
        clock = _Clock()
        monkeypatch.setattr(observers, "time", clock)
        result = drain(iter_dect(graph, rules, budget=DetectionBudget(deadline=100.0)))
        assert (result.stop_reason, result.stopped_early) == ("deadline", True)
        assert clock.readings == 100
        (plan,) = compile_plans(graph, rules)
        stepped = MatchStatistics()
        seeds, cost = first_step_seeds(graph, plan, stepped)
        units = [WorkUnit(0, plan.order, ((plan.order[0], node.id),)) for node in seeds]
        steps = 0
        # every person knows someone, so each step bills something
        while stepped != result.stats:
            outcome = expand_work_unit(graph, units.pop(), stepped, plan)
            units += outcome.new_units
            cost += max(outcome.filtering_adjacency, 1) + outcome.verification_adjacency
            steps += 1
        assert steps == 99 and cost == result.cost

    def test_a_simulated_run_tests_the_deadline_before_every_unit(self, quiet, monkeypatch):
        # PDect reads the clock once when seeding ends and once before each unit it pops
        graph, rules, _ = quiet
        clock = _Clock()
        monkeypatch.setattr(observers, "time", clock)
        result = drain(iter_p_dect(graph, rules, processors=4, budget=DetectionBudget(deadline=100.0)))
        assert (result.stop_reason, result.stopped_early) == ("deadline", True)
        assert clock.readings == 100
        assert sum(trace.work_units_processed for trace in result.worker_traces) == 98

    def test_a_process_run_stops_within_one_poll(self, quiet, monkeypatch, force_start_method):
        # the quiet rule finds nothing, and with one worker, no heartbeat and
        # no seed-count report, nothing wakes the parent before the worker has
        # searched everything: only the result poll can see the deadline
        graph, rules, _ = quiet
        force_start_method("fork")
        monkeypatch.setattr(executor, "HEARTBEAT_PERIOD_SECONDS", 0.0)
        monkeypatch.setattr(executor, "REPORT_EVERY_SEEDS", 10**9)
        stops = []
        exhausted = executor.ProcessRun.cost_exhausted
        monkeypatch.setattr(
            executor.ProcessRun,
            "cost_exhausted",
            lambda run: (exhausted(run) and not stops.append(time.monotonic())) or bool(stops),
        )
        deadline = time.monotonic() + 0.1
        events = iter_p_dect(
            graph, rules, processors=1, budget=DetectionBudget(deadline=deadline), execution="processes"
        )
        result = drain(events)
        assert (result.stop_reason, result.stopped_early) == ("deadline", True)
        assert deadline <= stops[0] <= deadline + executor.RESULT_POLL_SECONDS + 0.15

    def test_process_workers_stop_between_reports(self, quiet, monkeypatch, force_start_method):
        # two workers of about 1,000 seeds each reach no report before they
        # finish (heartbeats off): the stop event must reach them between
        # reports.  A full two-worker run takes 0.45-0.9 s on 2 CPUs, so a
        # run that stops within 64 seeds of a 0.1 s deadline examines well
        # under half the candidates
        graph, rules, full = quiet
        force_start_method("fork")
        monkeypatch.setattr(executor, "HEARTBEAT_PERIOD_SECONDS", 0.0)
        closed = []
        close = executor._Crew.close
        monkeypatch.setattr(executor._Crew, "close", lambda crew, run: (close(crew, run), closed.append(time.monotonic())))
        deadline = time.monotonic() + 0.1
        events = iter_p_dect(
            graph, rules, processors=2, budget=DetectionBudget(deadline=deadline), execution="processes"
        )
        result = drain(events)
        assert (result.stop_reason, result.stopped_early) == ("deadline", True)
        assert result.stats.candidates_examined < full.stats.candidates_examined / 2
        assert deadline <= closed[0] <= deadline + executor.RESULT_POLL_SECONDS + 0.2


# --------------------------------------------------------- service surface


class TestServiceFaultSurface:
    def test_degraded_summary_and_health_counters(
        self, kb_graph, kb_rules, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, "worker_death:worker=0,after=1")
        before = fault_tolerance_counters()["worker_restarts"]
        service = DetectionService(port=0)
        service.registry.register("kb", kb_graph)
        service.manager.register_catalog("bench", kb_rules)
        with service:
            client = ServiceClient(service.url)
            reply = client.detect(
                "kb", catalog="bench", execution="processes", processors=2
            )
            assert reply.summary["degraded"] is True
            health = client.health()
            assert health["fault_tolerance"]["worker_restarts"] > before
            assert health["fault_tolerance"]["degraded_runs"] >= 1

    def test_health_restarts_equal_the_metrics_counter(self, kb_graph, kb_rules, monkeypatch):
        # /health totals the registry's counters: the two surfaces cannot drift apart
        monkeypatch.setenv(FAULTS_ENV, "worker_death:worker=0,epoch=0,after=2")
        service = DetectionService(port=0)
        service.registry.register("kb", kb_graph)
        service.manager.register_catalog("bench", kb_rules)
        with service:
            client = ServiceClient(service.url)
            reply = client.detect("kb", catalog="bench", execution="processes", processors=2)
            assert reply.summary["degraded"] is False
            restarts = client.health()["fault_tolerance"]["worker_restarts"]
            [line] = [line for line in client.metrics().splitlines() if line.startswith("repro_worker_restarts_total ")]
        assert restarts >= 1
        assert float(line.split()[1]) == restarts

    def test_summary_degraded_defaults_false(self, kb_graph, kb_rules):
        service = DetectionService(port=0)
        service.registry.register("kb", kb_graph)
        service.manager.register_catalog("bench", kb_rules)
        with service:
            client = ServiceClient(service.url)
            reply = client.detect("kb", catalog="bench")
            assert reply.summary["degraded"] is False


# ----------------------------------------------------------- client retry


class TestClientRetries:
    @pytest.fixture()
    def flaky_server(self):
        """An HTTP server whose /health 503s twice, then succeeds."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        counters = {"health": 0, "detect": 0}

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # noqa: A002
                pass

            def _reply(self, status, document):
                body = json.dumps(document).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802
                counters["health"] += 1
                if counters["health"] <= 2:
                    self._reply(503, {"error": "warming up"})
                else:
                    self._reply(200, {"status": "ok"})

            def do_POST(self):  # noqa: N802
                counters["detect"] += 1
                length = int(self.headers.get("Content-Length") or 0)
                self.rfile.read(length)
                self._reply(503, {"error": "always failing"})

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a short poll, so that shutdown() returns at once
        thread = threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{httpd.server_address[1]}", counters
        finally:
            httpd.shutdown()
            thread.join()
            httpd.server_close()

    def test_idempotent_get_is_retried(self, flaky_server):
        url, counters = flaky_server
        client = ServiceClient(url, retries=3, retry_backoff=0.01)
        assert client.health()["status"] == "ok"
        assert counters["health"] == 3

    def test_get_without_retries_fails_fast(self, flaky_server):
        url, counters = flaky_server
        client = ServiceClient(url)
        with pytest.raises(ServiceError, match="503"):
            client.health()
        assert counters["health"] == 1

    def test_post_is_never_retried(self, flaky_server):
        url, counters = flaky_server
        client = ServiceClient(url, retries=5, retry_backoff=0.01)
        with pytest.raises(ServiceError, match="503"):
            client.checkpoint()
        assert counters["detect"] == 1

    def test_one_timeout_bounds_connect_and_read(self):
        # a listener that never answers: the connect completes, the read times out
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = ServiceClient(f"http://127.0.0.1:{listener.getsockname()[1]}", timeout=0.2)
            started = time.monotonic()
            with pytest.raises(OSError):
                client.health()
            assert time.monotonic() - started < 5
        with pytest.raises(TypeError):
            ServiceClient("http://127.0.0.1:1", connect_timeout=1.0, read_timeout=7.5)

    def test_negative_retries_refused(self):
        with pytest.raises(ServiceError):
            ServiceClient("http://127.0.0.1:1", retries=-1)


# -------------------------------------------------------------- environment


class TestZeroOverheadDefault:
    def test_no_plan_resolves_to_none(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert resolve_fault_plan() is None

    def test_counters_snapshot_shape(self):
        with DetectionService(port=0) as service:
            counters = ServiceClient(service.url).health()["fault_tolerance"]
        assert set(counters) == {"worker_restarts", "units_retried", "degraded_runs"}
        assert all(isinstance(value, int) for value in counters.values())
