"""Compare two sets of runs written with ``run.py --out``.

A set is a file with one JSON document per run.  For every (metric,
workload) pair the two medians are printed with their ratio (B over A, A
being the base), the bound ``BENCHMARK.json`` fixes, each side's spread —
the distance between the quartiles of its runs as a share of their median —
and a verdict:

``same``        B's median is within the bound of A's
``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better than A's by more than the bound
``unresolved``  a side's spread is wider than the bound, so the medians cannot tell
``-``           the metric has no bound (per-layer metrics) or a side has no runs
"""

from __future__ import annotations

import json
import statistics


def load(path: str) -> tuple[dict[tuple[str, str], list[float]], set[str]]:
    """Return ``(workload, metric) -> one value per run`` for a set of runs, and the plans they ran."""
    values: dict[tuple[str, str], list[float]] = {}
    plans = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                document = json.loads(line)
                plans.add(json.dumps(document["plan"], sort_keys=True))
                for metric, row in document["metrics"].items():
                    values.setdefault((document["workload"], metric), []).append(row["value"])
    return values, plans


def relative_spread(values: list[float]) -> float:
    """Return (q3 - q1) / median of a set's values; 0 for fewer than two runs."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def verdict(base: float, other: float, better: str, bound: float, spreads: tuple[float, float]) -> str:
    if max(spreads) > bound:
        return "unresolved"
    change = (other - base) / abs(base) if base else 0.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def main(path_a: str, path_b: str, spec: dict) -> int:
    """Print the comparison; return 1 when any bounded metric is worse."""
    (set_a, plans_a), (set_b, plans_b) = load(path_a), load(path_b)
    if len(plans_a | plans_b) != 1:
        print(f"the runs did not all measure the same amount of work: {sorted(plans_a | plans_b)}")
        return 2
    declared = {entry["name"]: entry for entry in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':<15} {'metric':<44} {'A median':>12} {'B median':>12} {'B/A':>7} {'bound':>6} "
          f"{'spread A':>9} {'spread B':>9}  verdict")
    worse = 0
    for key in sorted(set(set_a) | set(set_b)):
        workload, metric = key
        a, b = set_a.get(key), set_b.get(key)
        if not a or not b:
            print(f"{workload:<15} {metric:<44} only in {'A' if a else 'B'}")
            continue
        median_a, median_b = statistics.median(a), statistics.median(b)
        spreads = (relative_spread(a), relative_spread(b))
        entry = declared.get(metric, {})
        bound = entry.get("bound")
        outcome = verdict(median_a, median_b, entry["better"], bound, spreads) if bound is not None else "-"
        worse += outcome == "worse"
        ratio = f"{median_b / median_a:7.3f}" if median_a else "    n/a"
        print(f"{workload:<15} {metric:<44} {median_a:12.5g} {median_b:12.5g} {ratio} "
              f"{bound if bound is not None else '-':>6} {spreads[0]:9.3f} {spreads[1]:9.3f}  {outcome}"
              f"  (n={len(a)},{len(b)})")
    return 1 if worse else 0
