"""The start-up path pays only for what the process goes on to use.

Every case runs in a fresh interpreter: ``sys.modules`` of the test process
says nothing about what ``import repro`` loads.  The budget is a list of
modules no detection needs (``docs/ARCHITECTURE.md``, "Start-up path"); the
public names that moved behind the lazy table must still resolve, and a
server must have imported everything its request handlers use by the time
it prints the ready line.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from test_durability import _update, multi_area_graph

from repro.core.builtin_rules import example_rules
from repro.service.client import ServiceClient

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: No serial detection imports any of these.
DEFERRED = [
    "scipy",
    "numpy",
    "multiprocessing",
    "concurrent.futures",
    "repro.detect.parallel.executor",
    "repro.service",
    "repro.storage.manager",
    "repro.discovery",
    "repro.experiments",
    "repro.theory",
]

#: ``repro.__all__`` and ``repro.core.__all__`` as they were before any name became lazy.
REPRO_ALL = [
    "BalancingPolicy", "BatchUpdate", "CallbackSink", "CollectingSink", "Comparison",
    "DetectionBudget", "DetectionOptions", "Detector", "Graph", "Literal", "LiteralSet", "NGD",
    "Pattern", "ReproError", "RuleSet", "UpdateGenerator", "Violation", "ViolationDelta",
    "ViolationEvent", "ViolationSet", "ViolationSink", "__version__", "apply_update", "dect",
    "find_violations", "format_literal", "format_literal_set", "graph_satisfies", "implies",
    "inc_dect", "is_satisfiable", "is_strongly_satisfiable", "p_dect", "parse_expression",
    "parse_literal", "parse_literal_set", "pinc_dect",
]  # fmt: skip
CORE_ALL = [
    "AttributeRepair", "NGD", "RepairPlan", "RuleSet", "apply_repairs", "plan_repairs",
    "repair_graph", "SatisfiabilityResult", "Violation", "ViolationDelta", "ViolationSet",
    "cfd_as_ngd", "check_satisfiability", "effectiveness_rules", "example_rules",
    "find_violations", "gfd", "graph_satisfies", "implies", "is_redundant", "is_satisfiable",
    "is_strongly_satisfiable", "minimal_cover", "ngd1", "ngd2", "ngd3", "pattern_q1",
    "pattern_q2", "pattern_q3", "pattern_q4", "pattern_q5", "pattern_q6", "pattern_q7", "phi1",
    "phi2", "phi3", "phi4", "phi5", "phi6", "phi7", "phi8", "phi9", "satisfies_rule",
    "violations_of_rule",
]  # fmt: skip


def child_environment(**extra: str) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "REPRO_FAULTS"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def in_fresh_interpreter(code: str, **extra_env: str):
    """Run ``code`` in a new interpreter and return the JSON document it prints last."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=child_environment(**extra_env),
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


LOADED = "import json, sys; print(json.dumps([name for name in {deferred!r} if name in sys.modules]))"


@pytest.mark.parametrize(
    "statements",
    [
        "import repro",
        "import repro.cli",
        "from repro import Detector\n"
        "from repro.core import example_rules\n"
        "from repro.datasets.figure1 import figure1_g2\n"
        "assert Detector(example_rules()).run(figure1_g2()).violation_count() == 1",
    ],
    ids=["import-repro", "import-repro.cli", "detector-run"],
)
def test_no_detection_path_imports_the_deferred_modules(statements):
    assert in_fresh_interpreter(statements + "\n" + LOADED.format(deferred=DEFERRED)) == []


def test_public_names_are_unchanged_and_all_resolve():
    code = """
import json, sys
import repro, repro.core
report = {"repro_all": repro.__all__, "core_all": repro.core.__all__, "missing": []}
for module in (repro, repro.core):
    for name in module.__all__:
        if name not in dir(module) or getattr(module, name, None) is None:
            report["missing"].append(f"{module.__name__}.{name}")
namespace = {}
exec("from repro.core import *", namespace)
report["missing"] += [f"star:{name}" for name in repro.core.__all__ if name not in namespace]
print(json.dumps(report))
"""
    report = in_fresh_interpreter(code)
    assert report["repro_all"] == REPRO_ALL
    assert report["core_all"] == CORE_ALL
    assert report["missing"] == []


def test_a_satisfiability_check_is_what_brings_scipy_in():
    code = """
import json, sys
import repro
from repro.core import RuleSet, phi5, phi6
before = "scipy" in sys.modules
answers = [repro.is_satisfiable(RuleSet([phi5()])), repro.is_satisfiable(RuleSet([phi5(), phi6()]))]
print(json.dumps({"before": before, "answers": answers, "after": "scipy" in sys.modules}))
"""
    assert in_fresh_interpreter(code) == {"before": False, "answers": [True, False], "after": True}


def test_a_fault_plan_is_armed_wherever_it_is_read(tmp_path):
    """``REPRO_FAULTS`` is read when a log or a worker crew is built, not when ``repro`` is imported."""
    code = f"""
import json, sys
import repro
early = "repro.testing.faults" in sys.modules
from repro.storage import WriteAheadLog
from repro.testing.faults import resolve_fault_plan
log = WriteAheadLog({str(tmp_path / "wal.log")!r})
plan = resolve_fault_plan()
print(json.dumps({{"early": early, "wal": log._faults is not None, "worker": plan.for_worker(0, 0) is not None}}))
"""
    report = in_fresh_interpreter(code, REPRO_FAULTS="wal_fsync:after=1;worker_death:worker=0,after=3")
    assert report == {"early": False, "wal": True, "worker": True}


def test_a_server_imports_nothing_after_its_ready_line(tmp_path):
    """No lazy import can land inside a timed request: the served path, start to finish."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--quiet", "--data-dir", str(tmp_path / "data")],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=child_environment(),
    )
    try:
        ready = proc.stdout.readline().strip()
        assert ready.startswith("repro-detect: serving on http://"), ready
        client = ServiceClient(ready.split()[-1], timeout=60)
        client.register_graph("areas", multi_area_graph())
        client.register_rules("mine", example_rules())
        session = client.create_session("areas", catalog="mine")["session"]
        for index in range(3):
            assert client.post_update("areas", _update(index))["sessions_advanced"] == 1
        assert len(client.detect("areas", catalog="mine")) == len(client.session_state(session)["violations"])
        health = client.health()
        metrics = client.metrics()
    finally:
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 0
    startup = health["startup"]
    assert startup["imported_after_ready"] == []
    assert startup["replayed_records"] == 0
    assert 0 < startup["import_s"] < startup["ready_s"]
    assert 0 <= startup["recover_s"] < startup["ready_s"]
    for phase in ("import", "recover", "ready"):  # the block above is there with REPRO_OBS=off too
        assert f'repro_service_startup_seconds{{phase="{phase}"}}' in metrics or not health["observability"]
