"""Warm worker pools against cold ones (no figure analogue).

Repeating one detection request through the service path
(``execution="processes"`` jobs run on pool threads, so workers are spawned,
the expensive regime), a shared :class:`~repro.detect.parallel.WarmExecutorPool`
must make the steady-state per-job latency at least
``REPRO_SELFTUNING_WARM_BOUND`` (default 2.0x) better than paying worker
start-up + runtime loading per job, with identical violation records
(:func:`repro.experiments.run_selftuning`).

The parity assertions are unconditional; the wall-clock warm bound is only
enforced when the machine has at least two CPUs.
``REPRO_WRITE_BENCH_BASELINE=path`` persists the report JSON —
``benchmarks/BENCH_selftuning.json`` keeps the committed baseline read by
``generate_experiments_report.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import run_selftuning


def _warm_bound() -> float:
    return float(os.environ.get("REPRO_SELFTUNING_WARM_BOUND", "2.0"))


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.mark.benchmark(group="selftuning")
def test_warm_pool(benchmark):
    report = benchmark.pedantic(run_selftuning, rounds=1, iterations=1)
    print(json.dumps(report, indent=2, sort_keys=True))

    warm = report["warm_pool"]
    assert warm["identical_violation_records"] is True
    assert warm["pool"]["hits"] >= warm["jobs"] - 1
    speedup = warm["warm_speedup"]
    if _available_cpus() >= 2:
        assert speedup >= _warm_bound(), (
            f"warm pool reached only {speedup:.2f}x over cold jobs "
            f"(bound {_warm_bound()}x)"
        )
        print(f"warm pool {speedup:.2f}x")
    else:  # pragma: no cover - single-core runner
        print(
            f"NOTE: single CPU — warm wall-clock bound skipped "
            f"(measured {speedup:.2f}x); parity verified"
        )
