"""Observability quickstart: span trees, the metrics registry, and /metrics.

Run with::

    python examples/observability_quickstart.py

The script exercises the observability subsystem (`src/repro/obs/`,
``docs/ARCHITECTURE.md`` "Observability") end to end, in-process:

1. run a detection through the :class:`~repro.detect.session.Detector`
   session and render the run's span tree — the same output as
   ``repro-detect run --profile``;
2. read per-rule/per-step counters from the process-wide registry;
3. start the HTTP service with the access log on, stream a detection, and
   scrape ``GET /metrics`` (Prometheus text) and ``GET /debug/traces``
   while correlating the stream via its ``X-Repro-Trace`` trace id.

Everything is stdlib-only and observe-only: no metric or span changes what
a run detects.
"""

from __future__ import annotations

import json
import sys
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs
from repro.core.builtin_rules import example_rules
from repro.datasets.figure1 import figure1_g2
from repro.detect import Detector
from repro.obs.tracing import format_span_tree
from repro.service import DetectionService, ServiceClient


def main() -> None:
    obs.configure()  # fresh registry + recorder, so the counts below are this script's

    # -- 1. a traced detection run and its span tree ------------------------
    print("=== span tree of one Detector.run (repro-detect run --profile) ===")
    graph = figure1_g2()
    result = Detector(example_rules(), engine="batch").run(graph)
    print(f"{result.violation_count()} violation(s), trace {result.trace_id}")
    print(format_span_tree(obs.traces(), result.trace_id))

    # -- 2. the metrics registry --------------------------------------------
    print("\n=== registry counters after the run ===")
    registry = obs.metrics()
    print(f"runs:       {registry.value('repro_detect_runs_total', {'algorithm': 'Dect'}):.0f}")
    print(f"candidates: {registry.total('repro_detect_candidates_total'):.0f}")
    print(f"violations: {registry.total('repro_detect_violations_total'):.0f}")
    # every literal runs as generated code (ARCHITECTURE.md
    # "Compiled evaluation"); the counter has no labels
    print(f"literal evaluations: {registry.value('repro_literal_evals_total'):.0f}")

    # -- 3. the service surfaces --------------------------------------------
    service = DetectionService(port=0, access_log=True)  # serve without --quiet
    service.manager.register_catalog("example", example_rules())
    with service:
        print(f"\nservice listening on {service.url} (access log on stderr)")
        client = ServiceClient(service.url)
        client.register_graph("yago", figure1_g2())

        print("\n=== NDJSON stream with its trace id ===")
        trace_id = None
        for record in client.stream_detect("yago", catalog="example"):
            if record["type"] == "summary":
                trace_id = record["trace_id"]
                print(f"  summary: {record['violation_count']} violation(s), trace {trace_id}")
            else:
                print(f"  violation of {record['rule']}")

        print("\n=== GET /metrics (Prometheus text, first lines) ===")
        with urllib.request.urlopen(f"{service.url}/metrics") as response:
            text = response.read().decode("utf-8")
        interesting = [
            line
            for line in text.splitlines()
            if line.startswith(("repro_jobs_", "repro_detect_runs", "repro_http_requests"))
        ]
        print("\n".join(f"  {line}" for line in interesting))

        print("\n=== GET /debug/traces — the stream's server-side spans ===")
        with urllib.request.urlopen(f"{service.url}/debug/traces?limit=100") as response:
            document = json.loads(response.read())
        spans = [span for span in document["spans"] if span["trace_id"] == trace_id]
        for span in spans:
            print(f"  {span['name']} ({(span['duration'] or 0) * 1000:.2f} ms)")

        health = client.health()
        print(
            f"\n/health: fault_tolerance={health['fault_tolerance']} "
            f"uptime={health['uptime_seconds']:.1f}s"
        )

    assert result.violation_count() == 1
    assert trace_id is not None and spans, "the stream's trace must be recorded"
    print("\nobservability quickstart ok")


if __name__ == "__main__":
    main()
