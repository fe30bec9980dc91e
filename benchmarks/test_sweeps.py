"""The declared sweeps: each series against its recording, the paper's shapes, and the findings.

``benchmarks/sweeps_golden.ndjson`` holds, one flat row per line, what the
experiment drivers these sweeps replaced reported at ``TINY`` for every
series of Section 7.  The costs are deterministic (equal under different
``PYTHONHASHSEED`` values), so every sweep must reproduce its rows exactly.
Regenerate (only when a cost is meant to change) with::

    PYTHONPATH=src python benchmarks/test_sweeps.py
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import pytest

import sweeps

GOLDEN = Path(__file__).parent / "sweeps_golden.ndjson"

TINY = sweeps.Base(rules_count=6, max_diameter=3, processors=4, scale=0.08, seed=1)


@lru_cache(maxsize=None)
def tiny(name: str) -> list[dict]:
    """The rows of one sweep at ``TINY``, as they read back from JSON."""
    return json.loads(json.dumps(sweeps.run(sweeps.SWEEPS[name], TINY)))


def cost(name: str, algorithm: str, **cell) -> float:
    (found,) = [row["cost"] for row in tiny(name) if row["algorithm"] == algorithm and row.items() >= cell.items()]
    return found


@pytest.mark.parametrize("name", list(sweeps.SWEEPS))
def test_sweep_reproduces_its_recording(name):
    golden = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    assert tiny(name) == [row for row in golden if row["sweep"] == name]


def test_exp1_shapes():
    def exp1(algorithm, delta):
        return cost("exp1_delta", algorithm, dataset="YAGO2", delta=delta)

    # incremental beats batch at 5 % updates, and the parallel incremental algorithm the sequential one
    assert exp1("IncDect", 0.05) < exp1("Dect", 0.05)
    assert exp1("PIncDect", 0.05) < exp1("IncDect", 0.05)
    # batch cost is flat across update sizes; incremental grows
    assert exp1("Dect", 0.05) == exp1("Dect", 0.25)
    assert exp1("IncDect", 0.05) <= exp1("IncDect", 0.25)


def test_exp4_processor_scaling():
    assert cost("exp4_processors", "PIncDect", dataset="YAGO2", p=16) < cost("exp4_processors", "PIncDect", dataset="YAGO2", p=4)


def test_exp3_diameter_monotonicity():
    assert cost("exp3_diameter", "IncDect", diameter=2) <= cost("exp3_diameter", "IncDect", diameter=4)


def _rows(sweep: str, dataset: str, along: str, table: dict[str, tuple]) -> list[dict]:
    """Flat rows of one dataset's line: ``table[algorithm][i]`` is the cost at the i-th value of ``along``."""
    values = sweeps.SWEEPS[sweep].params[along]
    return [
        {"sweep": sweep, "dataset": dataset, along: values[i], "algorithm": algorithm, "cost": costs[i]}
        for i in range(len(next(iter(table.values()))))
        for algorithm, costs in table.items()
    ]


BROKEN = {
    # PDect rises from p=4 to p=8, and PIncDect_nb ties PIncDect at p=8
    "wrong trend and flat ablation": (
        "exp4_processors",
        _rows(
            "exp4_processors",
            "Pokec",
            "p",
            {
                "PDect": (100.0, 120.0, 90.0),
                "PIncDect": (50.0, 30.0, 20.0),
                "PIncDect_ns": (60.0, 40.0, 30.0),
                "PIncDect_nb": (60.0, 30.0, 30.0),
                "PIncDect_NO": (70.0, 50.0, 40.0),
            },
        ),
        [
            ("dataset=Pokec p=4→8", "PDect", "falls along p", "100.00 → 120.00"),
            ("dataset=Pokec p=8", "PIncDect", "below PIncDect_nb", "30.00 vs 30.00"),
        ],
    ),
    # a flat monitoring-interval line has no interior optimum
    "flat interval": (
        "exp4_interval",
        _rows("exp4_interval", "YAGO2", "intvl", {"PIncDect": (5.0, 5.0, 5.0), "PIncDect_ns": (6.0, 6.0, 6.0)}),
        [
            ("dataset=YAGO2 intvl=15", "PIncDect", "lowest inside the intvl range", "5.00 at the end vs 5.00 at intvl=30"),
            ("dataset=YAGO2 intvl=45", "PIncDect", "lowest inside the intvl range", "5.00 at the end vs 5.00 at intvl=30"),
        ],
    ),
}


@pytest.mark.parametrize("case", list(BROKEN))
def test_renderer_reports_each_broken_direction_with_its_coordinates(case):
    name, rows, expected = BROKEN[case]
    sweep = sweeps.SWEEPS[name]
    found = sweeps.findings(sweep, rows)
    assert [(f.sweep, f.where, f.algorithm, f.expected, f.got) for f in found] == [(name, *e) for e in expected]
    rendered = sweeps.render(sweep, rows)
    assert f"findings: {len(expected)}" in rendered
    for finding in found:
        assert str(finding) in rendered


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for name in sweeps.SWEEPS for row in tiny(name)), encoding="utf-8")
