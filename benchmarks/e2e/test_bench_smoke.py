"""Smoke test of the end-to-end benchmark harness (not of the system's speed).

``--smoke`` shrinks every input eightfold and takes two repetitions, so the
whole command path — generation, reference, stages, server, tracing, output —
runs in seconds.  Timing values are checked only for being finite and above
zero: a probe that stopped measuring must not read as a layer that got free.

All four workloads run untraced; the traced run, which is the same code for
every workload, is taken on one workload of each graph family.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import inputs

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*arguments: str) -> subprocess.CompletedProcess:
    command = [sys.executable, str(HERE / "run.py"), "--smoke", *arguments]
    return subprocess.run(command, capture_output=True, text=True, timeout=300, check=False)


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


#: per-layer metrics that are differences of two times, or counts of things that need not happen
MAY_BE_ZERO = {
    "detect.session.overhead_s",
    "service.http.update_overhead_ms",
    "service.http.detect_overhead_s",
    "matching.edge_checks",
    "detect.incdect.changes",
    "service.requests_failed",
    "detect.parallel.executor.stall_share",
    "prof.matching.adaptive.self_share",
}

JOBS = [(name, "0") for name in WORKLOADS] + [("kb_batch", "1"), ("literal_heavy", "1")]
CORRUPTED = ("service_mixed", "0", "--corrupt-reference")


@pytest.fixture(scope="module")
def finished() -> list[subprocess.CompletedProcess]:
    """Every smoke run of this module, started together (they are independent processes)."""
    with ThreadPoolExecutor(max_workers=4) as pool:
        return list(pool.map(lambda job: run("--workload", job[0], "--trace", *job[1:]), JOBS + [CORRUPTED]))


def test_every_declared_metric_is_emitted_for_every_workload(finished):
    for (name, trace), done in zip(JOBS, finished):
        assert done.returncode == 0, (name, trace, done.stderr[-2000:])
        result = result_of(done)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
        assert set(result["metrics"]) == {entry["name"] for entry in declared}, (name, trace)
        for entry in declared:
            assert NAME.fullmatch(entry["name"])
            metric = result["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), (name, entry)
        assert "skipped" not in done.stderr, (name, trace, done.stderr[-2000:])
        for entry in declared:
            if trace == "0" or entry["name"] not in MAY_BE_ZERO:
                assert result["metrics"][entry["name"]]["value"] > 0, (name, entry)


def test_inputs_are_a_function_of_the_seed_and_match_the_pins():
    pins = json.loads((HERE / "pinned_inputs.json").read_text(encoding="utf-8"))
    for spec in inputs.WORKLOADS:
        first, again, other = (inputs.generate(spec, seed, 8, 12) for seed in (pins["seed"], pins["seed"], 99))
        digests = {name: inputs.digest(document) for name, document in first.items()}
        assert digests == {name: inputs.digest(document) for name, document in again.items()}
        assert digests == pins["smoke"][spec.name]
        assert digests["graph"] != inputs.digest(other["graph"])
        assert digests["updates"] != inputs.digest(other["updates"])


def test_a_wrong_reference_digest_fails_the_run(finished):
    done = finished[-1]
    assert done.returncode != 0
    result = result_of(done)
    assert result["correct"] is False and result["failed"] > 0
    fail_share = [line for line in done.stdout.splitlines() if line.startswith("service_mixed fail_share ")]
    assert fail_share and float(fail_share[0].split()[2]) > 0
