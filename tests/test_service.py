"""Tests for the detection service: registry, protocol, HTTP server, client.

The end-to-end tests run the real ``ThreadingHTTPServer`` on an ephemeral
localhost port and talk to it through :class:`repro.service.ServiceClient`
— no mocking — including the multi-tenant concurrency scenario the ISSUE
names: N threads streaming detection against one registered graph while
another thread posts updates, asserting version isolation, per-request
budget enforcement, and clean shutdown.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.builtin_rules import example_rules, phi2
from repro.core.ngd import RuleSet
from repro.core.violations import Violation, ViolationSet
from repro.detect import CollectingSink, Detector, FanOutSink
from repro.errors import SerializationError, ServiceError, UpdateError
from repro.graph.graph import Graph
from repro.graph.io import graph_to_dict, save_graph
from repro.graph.updates import BatchUpdate, NodePayload, apply_update
from repro.service import (
    DetectionService,
    GraphRegistry,
    ServiceClient,
    decode_record,
    encode_record,
    parse_detect_request,
)


def multi_area_graph(areas: int = 4, name: str = "areas") -> Graph:
    """A graph where every area violates φ2 (female + male ≠ total)."""
    graph = Graph(name)
    for i in range(areas):
        graph.add_node(f"area{i}", "area")
        graph.add_node(f"f{i}", "integer", {"val": 100 + i})
        graph.add_node(f"m{i}", "integer", {"val": 200 + i})
        graph.add_node(f"t{i}", "integer", {"val": 999})
        graph.add_edge(f"area{i}", f"f{i}", "femalePopulation")
        graph.add_edge(f"area{i}", f"m{i}", "malePopulation")
        graph.add_edge(f"area{i}", f"t{i}", "populationTotal")
    return graph


@pytest.fixture
def service():
    svc = DetectionService(port=0)
    svc.manager.register_catalog("example", example_rules())
    with svc:
        yield svc


@pytest.fixture
def client(service):
    return ServiceClient(service.url)


# ---------------------------------------------------------------- protocol


class TestProtocol:
    def test_parse_minimal_request(self):
        request = parse_detect_request({"catalog": "example"})
        assert request.catalog == "example"
        assert request.engine == "auto"
        assert request.max_violations is None

    def test_inline_rules_are_parsed_eagerly(self):
        request = parse_detect_request({"rules": RuleSet([phi2()]).to_dict()})
        assert len(request.rules) == 1
        with pytest.raises(ServiceError):
            parse_detect_request({"rules": {"bad": "shape"}})

    def test_both_rule_sources_rejected(self):
        with pytest.raises(ServiceError):
            parse_detect_request({"catalog": "a", "rules": RuleSet([phi2()]).to_dict()})

    @pytest.mark.parametrize(
        "document",
        [
            {"engine": "warp"},
            {"catalog": "x", "max_violations": 0},
            {"catalog": "x", "max_violations": True},
            {"catalog": "x", "max_cost": -1},
            {"catalog": "x", "processors": 0},
            {"catalog": 7},
            "not an object",
        ],
    )
    def test_malformed_requests_rejected(self, document):
        with pytest.raises(ServiceError):
            parse_detect_request(document)

    def test_record_round_trip(self):
        record = {"type": "violation", "rule": "r", "variables": ["x"], "nodes": ["a"], "introduced": True}
        assert decode_record(encode_record(record)) == record

    def test_decode_rejects_garbage(self):
        with pytest.raises(SerializationError):
            decode_record(b"{broken")
        with pytest.raises(SerializationError):
            decode_record(b'["no", "type"]')


# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_register_and_version(self):
        registry = GraphRegistry()
        registered = registry.register("g", multi_area_graph(1))
        assert registered.version == 1
        assert registry.names() == ["g"]
        assert "g" in registry

    def test_duplicate_name_rejected(self):
        registry = GraphRegistry()
        registry.register("g", multi_area_graph(1))
        with pytest.raises(ServiceError, match="already registered"):
            registry.register("g", multi_area_graph(1))

    def test_unknown_graph_rejected(self):
        with pytest.raises(ServiceError, match="no graph"):
            GraphRegistry().get("missing")

    def test_update_bumps_version_and_swaps_snapshot(self):
        registry = GraphRegistry()
        registry.register("g", multi_area_graph(2))
        before, v1 = registry.get("g").snapshot()
        outcome = registry.apply_update("g", BatchUpdate().delete("area0", "t0", "populationTotal"))
        after, v2 = registry.get("g").snapshot()
        assert (v1, v2) == (1, 2)
        assert outcome.version == 2 and outcome.applied == 1
        # the old snapshot object is untouched (version isolation)
        assert before.has_edge("area0", "t0", "populationTotal")
        assert not after.has_edge("area0", "t0", "populationTotal")

    def test_failed_update_changes_nothing(self):
        registry = GraphRegistry()
        registry.register("g", multi_area_graph(1))
        graph_before, _ = registry.get("g").snapshot()
        with pytest.raises(UpdateError):
            registry.apply_update("g", BatchUpdate().delete("area0", "t0", "no_such_edge"))
        graph_after, version = registry.get("g").snapshot()
        assert version == 1 and graph_after is graph_before

    def test_register_file_round_trips_through_io(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(multi_area_graph(2), path)
        registry = GraphRegistry()
        registered = registry.register_file("g", path)
        assert registered.graph.node_count() == multi_area_graph(2).node_count()


# ---------------------------------------------------- HTTP server: basics


class TestServiceEndpoints:
    def test_health_and_listings(self, service, client):
        assert client.health()["status"] == "ok"
        assert client.list_graphs() == []
        assert client.list_rules()[0]["name"] == "example"

    def test_register_detect_update_session_cycle(self, service, client):
        """The acceptance-criteria tour: register → stream → update → delta."""
        graph = multi_area_graph(3)
        info = client.register_graph("areas", graph)
        assert info["version"] == 1 and info["nodes"] == 12

        # budgeted NDJSON stream
        records = list(client.stream_detect("areas", catalog="example", max_violations=2))
        assert [r["type"] for r in records] == ["violation", "violation", "summary"]
        assert records[-1]["stopped_early"] is True
        assert records[-1]["stop_reason"] == "max_violations"
        assert records[-1]["graph_version"] == 1

        # continuous session at version 1
        state = client.create_session("areas", catalog="example")
        assert state["violation_count"] == 3 and state["base_version"] == 1

        # post ΔG, read the per-version ViolationDelta
        update = client.post_update("areas", BatchUpdate().delete("area1", "t1", "populationTotal"))
        assert update["version"] == 2
        deltas = client.session_deltas(state["session"])
        assert [d["version"] for d in deltas["deltas"]] == [2]
        (delta,) = deltas["deltas"]
        assert delta["introduced"] == []
        assert [v["nodes"][0] for v in delta["removed"]] == ["area1"]

        # the session's maintained set matches a fresh full run
        session_state = client.session_state(state["session"])
        reply = client.detect("areas", catalog="example")
        assert session_state["current_version"] == 2
        assert ViolationSet.from_dict(session_state) == ViolationSet(reply.violations)

    def test_inline_rules_detection(self, service, client):
        client.register_graph("g", multi_area_graph(2))
        reply = client.detect("g", rules=RuleSet([phi2()], name="inline"))
        assert len(reply) == 2

    def test_detect_unknown_graph_is_404_class_error(self, service, client):
        with pytest.raises(ServiceError, match="no graph"):
            client.detect("missing", catalog="example")

    def test_detect_unknown_catalog_rejected(self, service, client):
        client.register_graph("g", multi_area_graph(1))
        with pytest.raises(ServiceError, match="no rule catalog"):
            client.detect("g", catalog="missing")

    def test_detect_without_rules_rejected(self, service, client):
        client.register_graph("g", multi_area_graph(1))
        with pytest.raises(ServiceError, match="inline 'rules' or name a 'catalog'"):
            client.detect("g")

    def test_duplicate_graph_registration_conflicts(self, service, client):
        client.register_graph("g", multi_area_graph(1))
        with pytest.raises(ServiceError, match="409"):
            client.register_graph("g", multi_area_graph(1))

    def test_bad_update_rejected_and_version_unchanged(self, service, client):
        client.register_graph("g", multi_area_graph(1))
        with pytest.raises(ServiceError):
            client.post_update("g", BatchUpdate().delete("area0", "t0", "nope"))
        assert client.graph_info("g")["version"] == 1

    def test_register_rules_catalog_over_http(self, service, client):
        client.register_graph("g", multi_area_graph(1))
        client.register_rules("mine", RuleSet([phi2()], name="mine"))
        assert any(c["name"] == "mine" for c in client.list_rules())
        assert len(client.detect("g", catalog="mine")) == 1

    def test_session_budget_rejected(self, service, client):
        client.register_graph("g", multi_area_graph(1))
        with pytest.raises(ServiceError, match="budget"):
            client._json(
                "POST", "/graphs/g/sessions", {"catalog": "example", "max_violations": 1}
            )

    def test_close_session(self, service, client):
        client.register_graph("g", multi_area_graph(1))
        state = client.create_session("g", catalog="example")
        assert client.list_sessions()
        client.close_session(state["session"])
        assert client.list_sessions() == []
        with pytest.raises(ServiceError, match="no session"):
            client.session_state(state["session"])

    def test_unknown_route_is_error(self, service, client):
        with pytest.raises(ServiceError, match="no resource"):
            client._json("GET", "/definitely/not/a/route")

    def test_malformed_but_json_bodies_get_a_json_error_not_a_dropped_connection(
        self, service, client
    ):
        # graph document with the wrong shapes inside
        with pytest.raises(ServiceError, match="malformed"):
            client._json("POST", "/graphs/bad", {"nodes": 5, "edges": []})
        with pytest.raises(ServiceError, match="malformed"):
            client._json("POST", "/graphs/bad", {"nodes": [{"id": "a"}], "edges": []})
        # update entries that are not objects
        client.register_graph("g", multi_area_graph(1))
        with pytest.raises(ServiceError, match="malformed"):
            client._json("POST", "/graphs/g/updates", ["notadict"])
        # catalog document with broken rule entries
        with pytest.raises(ServiceError):
            client._json("POST", "/rules/bad", {"rules": [42]})
        # the server survived all of it
        assert client.health()["status"] == "ok"

    def test_unaddressable_resource_names_rejected_at_registration(self, service, client):
        # '/' would never survive the URL router's path split
        with pytest.raises(ServiceError, match="URL path segment"):
            client.register_graph("fig/one", multi_area_graph(1))
        with pytest.raises(ServiceError, match="URL path segment"):
            client.register_rules("my catalog", RuleSet([phi2()]))
        # server-side enforcement too (e.g. CLI --graph preregistration)
        with pytest.raises(ServiceError, match="URL path segment"):
            service.registry.register("fig/one", multi_area_graph(1))
        with pytest.raises(ServiceError, match="URL path segment"):
            service.manager.register_catalog("", RuleSet([phi2()]))

    def test_parallel_engine_over_the_wire(self, service, client):
        client.register_graph("g", multi_area_graph(3))
        reply = client.detect("g", catalog="example", engine="parallel", processors=4)
        assert len(reply) == 3
        assert reply.summary["algorithm"] == "PDect"
        assert reply.summary["processors"] == 4


# ------------------------------------------------- concurrency / isolation


class TestConcurrentUse:
    """N streaming tenants + one writer against a single registered graph."""

    AREAS = 6
    UPDATES = 4
    READERS = 3

    def _expected_by_version(self, graph: Graph, updates: list[BatchUpdate]) -> dict[int, frozenset]:
        """Ground truth: Vio(Σ, G_v) computed locally for every version."""
        detector = Detector([phi2()])
        expected = {1: detector.run(graph).violations.as_set()}
        current = graph
        for index, update in enumerate(updates, start=2):
            current = apply_update(current, update)
            expected[index] = detector.run(current).violations.as_set()
        return expected

    def test_streams_see_one_consistent_version_while_updates_land(self, service, client):
        graph = multi_area_graph(self.AREAS)
        updates = [
            BatchUpdate().delete(f"area{i}", f"t{i}", "populationTotal")
            for i in range(self.UPDATES)
        ]
        expected = self._expected_by_version(graph, updates)
        client.register_graph("areas", graph)
        session = client.create_session("areas", catalog="example")

        stop = threading.Event()
        errors: list[str] = []
        versions_seen: set[int] = set()
        lock = threading.Lock()

        def reader() -> None:
            while not stop.is_set():
                try:
                    reply = client.detect("areas", catalog="example")
                except Exception as exc:  # noqa: BLE001 - collected for the assertion
                    errors.append(f"reader failed: {exc!r}")
                    return
                version = reply.graph_version
                found = frozenset(reply.violations)
                if found != expected[version]:
                    errors.append(
                        f"stream at version {version} saw {len(found)} violations, "
                        f"expected {len(expected[version])} — torn read"
                    )
                with lock:
                    versions_seen.add(version)

        def writer() -> None:
            try:
                for update in updates:
                    time.sleep(0.02)
                    client.post_update("areas", update)
            except Exception as exc:  # noqa: BLE001
                errors.append(f"writer failed: {exc!r}")

        readers = [threading.Thread(target=reader) for _ in range(self.READERS)]
        for thread in readers:
            thread.start()
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        writer_thread.join(timeout=30)
        time.sleep(0.05)  # let readers observe the final version
        stop.set()
        for thread in readers:
            thread.join(timeout=30)

        assert not errors, errors
        assert versions_seen, "no stream completed"
        # the final version is observable and consistent
        final = client.detect("areas", catalog="example")
        assert final.graph_version == 1 + self.UPDATES
        assert frozenset(final.violations) == expected[final.graph_version]
        # the continuous session tracked every version exactly once, in order
        deltas = client.session_deltas(session["session"])
        assert [d["version"] for d in deltas["deltas"]] == list(range(2, 2 + self.UPDATES))
        state = client.session_state(session["session"])
        assert ViolationSet.from_dict(state).as_set() == expected[1 + self.UPDATES]

    def test_stream_on_a_snapshot_ignores_updates_to_nodes_it_has_not_reached(self):
        """Snapshots share adjacency buckets with their successors: a stream that is
        part-way through G_v must keep reading G_v's buckets while 20+ later
        versions rewrite exactly the nodes it has yet to visit."""
        areas = 24
        registry = GraphRegistry()
        registry.register("areas", multi_area_graph(areas))
        expected = Detector([phi2()]).run(multi_area_graph(areas)).violations.as_set()
        assert len(expected) == areas
        snapshot, _ = registry.get("areas").snapshot()
        stream = Detector([phi2()]).stream(snapshot)
        first = next(stream)
        pending = [i for i in range(areas) if f"area{i}" not in first.nodes]
        for i in pending:  # each repairs one area the stream has not reported yet
            registry.apply_update(
                "areas",
                BatchUpdate()
                .delete(f"area{i}", f"t{i}", "populationTotal")
                .insert(f"area{i}", f"t{i}-fixed", "populationTotal",
                        target_payload=NodePayload("integer", {"val": 300 + 2 * i})),
            )
        assert len(pending) >= 20
        latest, version = registry.get("areas").snapshot()
        assert version == 1 + len(pending)
        assert len(Detector([phi2()]).run(latest).violations) == 1
        assert frozenset([first, *stream]) == expected
        snapshot.validate_consistency()

    def test_readers_of_a_snapshot_are_undisturbed_by_a_writer_on_shared_buckets(self):
        """Four reader threads (more than cores) walk every bucket of G_v while a
        writer piles 40 versions on top of it; thread switches are forced often."""
        areas = 12
        registry = GraphRegistry()
        registry.register("areas", multi_area_graph(areas))
        snapshot, _ = registry.get("areas").snapshot()

        def walk(graph: Graph) -> list:
            return [
                (node_id, sorted(graph.successors(node_id)), sorted(graph.predecessors(node_id)))
                for node_id in graph.node_ids()
            ] + [sorted(graph.nodes_with_label("integer"))]

        reference = walk(snapshot)
        torn: list[str] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                if walk(snapshot) != reference:
                    torn.append("a reader saw G_v change")
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for thread in readers:
                thread.start()
            totals = {i: f"t{i}" for i in range(areas)}
            for round_ in range(40):
                i = round_ % areas
                replacement = f"t{i}-{round_}"
                registry.apply_update(
                    "areas",
                    BatchUpdate()
                    .delete(f"area{i}", totals[i], "populationTotal")
                    .insert(f"area{i}", replacement, "populationTotal",
                            target_payload=NodePayload("integer", {"val": round_})),
                )
                totals[i] = replacement
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert not torn, torn
        assert registry.get("areas").version == 41
        assert walk(snapshot) == reference

    def test_budgets_are_enforced_per_request(self, service, client):
        client.register_graph("areas", multi_area_graph(self.AREAS))
        outcomes: dict[str, object] = {}
        errors: list[str] = []

        def run(tag: str, **kwargs) -> None:
            try:
                outcomes[tag] = client.detect("areas", catalog="example", **kwargs)
            except Exception as exc:  # noqa: BLE001
                errors.append(f"{tag}: {exc!r}")

        threads = [
            threading.Thread(target=run, args=("capped1",), kwargs={"max_violations": 1}),
            threading.Thread(target=run, args=("capped2",), kwargs={"max_violations": 2}),
            threading.Thread(target=run, args=("unbounded",)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

        assert not errors, errors
        assert len(outcomes["capped1"]) == 1 and outcomes["capped1"].stopped_early
        assert len(outcomes["capped2"]) == 2 and outcomes["capped2"].stopped_early
        assert len(outcomes["unbounded"]) == self.AREAS
        assert not outcomes["unbounded"].stopped_early

    def test_clean_shutdown(self):
        service = DetectionService(port=0)
        service.manager.register_catalog("example", example_rules())
        service.start()
        client = ServiceClient(service.url, timeout=5)
        client.register_graph("g", multi_area_graph(1))
        assert client.health()["graphs"] == 1
        service.stop()
        assert not service.running
        with pytest.raises(OSError):
            client.health()
        # idempotent and restartable-by-construction: stop again is a no-op
        service.stop()


class TestSinkThreadSafety:
    def test_fanout_and_collecting_sinks_survive_concurrent_notification(self):
        collecting = CollectingSink()
        fan_out = FanOutSink([collecting, CollectingSink()])
        per_thread, threads = 250, 8

        def hammer(worker: int) -> None:
            for i in range(per_thread):
                fan_out.on_violation(Violation("r", ("x",), (f"{worker}-{i}",)), introduced=True)
                fan_out.on_violation(Violation("r", ("x",), (f"{worker}-{i}",)), introduced=False)
            fan_out.on_finish(object())

        workers = [threading.Thread(target=hammer, args=(n,)) for n in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=30)

        assert len(collecting.introduced) == per_thread * threads
        assert len(collecting.removed) == per_thread * threads
        assert len(collecting.results) == threads


# ------------------------------------------------------------ CLI `serve`


class TestServeCli:
    def test_serve_subprocess_end_to_end(self, tmp_path):
        """`repro-detect serve` + client over a real socket, SIGINT exits 0."""
        graph_path = tmp_path / "areas.json"
        save_graph(multi_area_graph(2), graph_path)
        rules_path = tmp_path / "rules.json"
        RuleSet([phi2()], name="mine").save(rules_path)

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--graph",
                f"areas={graph_path}",
                "--catalog",
                f"mine={rules_path}",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        try:
            ready = proc.stdout.readline().strip()
            assert ready.startswith("repro-detect: serving on http://"), ready
            client = ServiceClient(ready.split()[-1], timeout=30)
            assert {c["name"] for c in client.list_rules()} >= {"example", "effectiveness", "mine"}
            reply = client.detect("areas", catalog="mine", max_violations=1)
            assert len(reply) == 1 and reply.stopped_early
            update = client.post_update(
                "areas", BatchUpdate().delete("area0", "t0", "populationTotal")
            )
            assert update["version"] == 2
        finally:
            proc.send_signal(signal.SIGINT)
            code = proc.wait(timeout=30)
        assert code == 0


# -------------------------------------------- snapshot GC + delta compaction


class TestRetentionWindow:
    """PR-3 follow-on: bounded snapshots and squashed session deltas."""

    def _update(self, i: int) -> BatchUpdate:
        # flip one area's total back and forth so every update changes ΔVio
        return (
            BatchUpdate()
            .delete("area0", f"t0" if i % 2 == 0 else "t0x", "populationTotal")
            .insert(
                "area0",
                "t0x" if i % 2 == 0 else "t0",
                "populationTotal",
            )
        )

    def test_registry_retains_bounded_snapshot_window(self):
        registry = GraphRegistry(retain_versions=3)
        registry.register("g", multi_area_graph(2))
        registered = registry.get("g")
        assert registered.retained_versions() == [1]
        for i in range(8):
            registry.apply_update("g", self._update(i))
        versions = registered.retained_versions()
        assert len(versions) == 3
        assert versions == [7, 8, 9]
        # retained snapshots are addressable, GC'd ones refuse
        assert registered.snapshot_at(9) is registered.snapshot()[0]
        with pytest.raises(ServiceError, match="no retained snapshot"):
            registered.snapshot_at(2)

    def test_retained_snapshots_keep_their_own_content_as_versions_pile_up(self):
        """Each pinned snapshot shares buckets with its neighbours in the chain and
        must still read exactly as it did when it was the current version."""
        registry = GraphRegistry(retain_versions=3)
        registry.register("g", multi_area_graph(2))
        registered = registry.get("g")
        oracle = multi_area_graph(2).with_backend("dict")
        reference = {1: graph_to_dict(oracle)}
        for i in range(8):
            registry.apply_update("g", self._update(i))
            apply_update(oracle, self._update(i), in_place=True)
            reference[registered.version] = graph_to_dict(oracle)
            for version in registered.retained_versions():
                retained = registered.snapshot_at(version)
                assert graph_to_dict(retained) == reference[version]
                retained.validate_consistency()
        assert registered.retained_versions() == [7, 8, 9]
        violations = {
            version: len(Detector(example_rules()).run(registered.snapshot_at(version)).violations)
            for version in registered.retained_versions()
        }
        # t0 (999, violating) and t0x (a bare node, no value) alternate as area0's total
        assert violations == {7: 2, 8: 1, 9: 2}

    def test_invalid_retention_window_rejected(self):
        with pytest.raises(ServiceError, match="retain_versions"):
            GraphRegistry(retain_versions=0).register("g", multi_area_graph(1))

    def test_long_update_loop_holds_bounded_deltas_and_consistent_state(self):
        """The GC acceptance test: a long-running update loop stays bounded
        while the session's maintained violation set stays exactly right."""
        retain = 4
        service = DetectionService(port=0, retain_versions=retain)
        service.manager.register_catalog("example", example_rules())
        graph = multi_area_graph(3)
        service.registry.register("g", graph)
        request = parse_detect_request({"catalog": "example"})
        session = service.manager.create_session("g", request)
        rounds = 12
        for i in range(rounds):
            service.registry.apply_update("g", self._update(i))
        # bounded: the registry window and the session's delta log
        assert len(service.registry.get("g").retained_versions()) <= retain
        assert session.delta_count() <= retain
        assert session.compacted_through == rounds + 1 - retain
        # consistent: the maintained set equals a fresh batch run
        current, version = service.registry.get("g").snapshot()
        expected = Detector(example_rules(), engine="batch").run(current).violations
        assert session.violations.to_json() == expected.to_json()
        assert session.current_version == version
        # the squashed prefix plus the retained tail reproduces every change
        records = session.deltas_since(session.base_version)
        assert records[0]["squashed"] is True
        rebuilt = session_base = Detector(example_rules(), engine="batch").run(graph).violations
        from repro.core.violations import ViolationDelta

        for record in records:
            rebuilt = rebuilt.apply_delta(ViolationDelta.from_dict(record))
        assert rebuilt.to_json() == expected.to_json()
        assert session_base is not rebuilt
        # state document reports the compaction point
        assert session.state_document()["compacted_through"] == session.compacted_through

    def test_deltas_since_inside_window_unchanged(self):
        service = DetectionService(port=0, retain_versions=4)
        service.manager.register_catalog("example", example_rules())
        service.registry.register("g", multi_area_graph(2))
        session = service.manager.create_session("g", parse_detect_request({"catalog": "example"}))
        for i in range(3):
            service.registry.apply_update("g", self._update(i))
        records = session.deltas_since(1)
        assert [r["version"] for r in records] == [2, 3, 4]
        assert all("squashed" not in r for r in records)


class TestSessionPlanReuse:
    def test_plans_reused_across_versions_until_drift(self):
        service = DetectionService(port=0)
        service.manager.register_catalog("example", example_rules())
        service.registry.register("g", multi_area_graph(3))
        session = service.manager.create_session("g", parse_detect_request({"catalog": "example"}))
        assert session.plan_compilations == 1
        # small flip-flop updates stay within the drift tolerance
        delta_a = BatchUpdate().delete("area0", "t0", "populationTotal")
        delta_b = BatchUpdate().insert("area0", "t0", "populationTotal")
        for _ in range(3):
            service.registry.apply_update("g", delta_a)
            service.registry.apply_update("g", delta_b)
        assert session.plan_compilations == 1
        # a bulk insert beyond the tolerance invalidates the cached plans
        grow = BatchUpdate()
        for i in range(30):
            grow.insert(
                f"extra{i}",
                f"extra{i + 1}",
                "link",
                source_payload=NodePayload("filler", {}),
                target_payload=NodePayload("filler", {}),
            )
        service.registry.apply_update("g", grow)
        assert session.plan_compilations == 2


class TestCompactionCatchUpSafety:
    """Regressions for the review findings on the GC/retention feature."""

    def _flip(self, i: int) -> BatchUpdate:
        return (
            BatchUpdate()
            .delete("area0", "t0" if i % 2 == 0 else "t0x", "populationTotal")
            .insert("area0", "t0x" if i % 2 == 0 else "t0", "populationTotal")
        )

    def test_mid_window_catch_up_refused_after_squash(self):
        """A client inside the squashed window cannot be served a net delta
        (remove/reintroduce pairs have cancelled out of it) — refuse loudly."""
        service = DetectionService(port=0, retain_versions=2)
        service.manager.register_catalog("example", example_rules())
        service.registry.register("g", multi_area_graph(2))
        session = service.manager.create_session("g", parse_detect_request({"catalog": "example"}))
        for i in range(6):
            service.registry.apply_update("g", self._flip(i))
        assert session.compacted_through is not None
        mid_window = session.base_version + 1
        assert mid_window < session.compacted_through
        with pytest.raises(ServiceError, match="no longer reconstructible"):
            session.deltas_since(mid_window)
        # catch-up from the base version and from inside the retained tail
        # both still reproduce the server's maintained set exactly
        from repro.core.violations import ViolationDelta

        current, _ = service.registry.get("g").snapshot()
        expected = Detector(example_rules(), engine="batch").run(current).violations
        base = Detector(example_rules(), engine="batch").run(multi_area_graph(2)).violations
        rebuilt = base
        for record in session.deltas_since(session.base_version):
            rebuilt = rebuilt.apply_delta(ViolationDelta.from_dict(record))
        assert rebuilt.to_json() == expected.to_json()
        tail_records = session.deltas_since(session.compacted_through)
        assert all("squashed" not in r for r in tail_records)

    def test_service_rejects_conflicting_registry_retention(self):
        registry = GraphRegistry()  # no retention window of its own
        with pytest.raises(ServiceError, match="conflicts with the supplied registry"):
            DetectionService(port=0, registry=registry, retain_versions=3)
        # matching windows are accepted
        matching = GraphRegistry(retain_versions=3)
        service = DetectionService(port=0, registry=matching, retain_versions=3)
        assert service.manager.retain_versions == 3
