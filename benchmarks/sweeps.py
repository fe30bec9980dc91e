"""The paper's five experiments (Section 7, Exp-1…5, Figures 4(a)–(n)) as declared sweeps.

Run every sweep, or the ones named, at the benchmark configuration::

    python benchmarks/sweeps.py [SWEEP ...]

It prints a header line (git SHA, ``nproc``, Python, base configuration),
then per sweep one table and every cell that breaks a direction the paper
leads us to expect, with its parameter values, algorithm and both costs.
Findings are reported, not gated on: the command fails only on an exception.

Cost is the deterministic measure of ``repro.detect.base`` (work units, and
the simulated makespan for PDect and PIncDect).  It stands in for the
paper's seconds on a 20-machine cluster, so the shapes and orderings are
what is reproduced.  ``benchmarks/test_sweeps.py`` holds every sweep, at a
small base configuration, to ``benchmarks/sweeps_golden.ndjson``.
"""

from __future__ import annotations

import itertools
import os
import platform
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Union

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core.builtin_rules import example_rules  # noqa: E402
from repro.core.validation import find_violations  # noqa: E402
from repro.datasets.figure1 import figure1_graphs  # noqa: E402
from repro.datasets.kb import dbpedia_like, pokec_like, yago_like  # noqa: E402
from repro.datasets.rules import benchmark_rules, rules_with_diameter  # noqa: E402
from repro.datasets.synthetic import synthetic_graph  # noqa: E402
from repro.detect import BalancingPolicy, DetectionOptions, Detector  # noqa: E402
from repro.graph.updates import UpdateGenerator, apply_update  # noqa: E402

#: Section 7's fixed parameters that no sweep here scales down: the
#: communication latency C, the monitoring interval intvl, |ΔG| as a share of
#: |E| and the share of insertions in ΔG.
LATENCY = 60.0
INTERVAL = 45.0
DELTA_FRACTION = 0.15
INSERT_RATIO = 0.5

#: PIncDect and its three balancing ablations (Exp-4).
POLICIES = {
    "PIncDect": BalancingPolicy.hybrid,
    "PIncDect_ns": BalancingPolicy.no_splitting,
    "PIncDect_nb": BalancingPolicy.no_rebalancing,
    "PIncDect_NO": BalancingPolicy.none,
}


@dataclass(frozen=True)
class Base:
    """What every cell of every sweep shares; the defaults are the benchmark's."""

    rules_count: int = 24
    max_diameter: int = 5
    processors: int = 8
    scale: float = 1.0
    seed: int = 0


BENCHMARK = Base()


def _synthetic(scale: float, seed: int):
    return synthetic_graph(
        num_nodes=int(3000 * scale), num_edges=int(3600 * scale), structured_fraction=0.7, seed=seed, name="Synthetic"
    )


#: The four evaluation graphs by their paper names: ``(scale=, seed=) -> Graph``.
DATASETS = {"DBpedia": dbpedia_like, "YAGO2": yago_like, "Pokec": pokec_like, "Synthetic": _synthetic}


def _graph(base: Base, dataset: str):
    return DATASETS[dataset](scale=base.scale, seed=base.seed + 1)


def _rules(base: Base, graph, count: Optional[int] = None):
    return benchmark_rules(graph, count=count or base.rules_count, max_diameter=base.max_diameter, seed=base.seed)


def _delta(base: Base, graph, fraction: float = DELTA_FRACTION):
    """ΔG of ``fraction`` of the edges, and G ⊕ ΔG."""
    size = max(1, int(graph.edge_count() * fraction))
    delta = UpdateGenerator(seed=base.seed + 7).generate(graph, size=size, insert_ratio=INSERT_RATIO)
    return delta, apply_update(graph, delta)


def _prepare(base: Base, dataset: str, count: Optional[int] = None):
    graph = _graph(base, dataset)
    rules = _rules(base, graph, count)
    return (graph, rules, *_delta(base, graph))


def _batch(graph, rules, processors: int) -> dict[str, float]:
    return {
        "Dect": Detector(rules, engine="batch").run(graph).cost,
        "PDect": Detector(rules, engine="parallel", processors=processors).run(graph).cost,
    }


def _incremental(graph, rules, delta, updated, processors: int, names, latency=LATENCY, interval=INTERVAL):
    """IncDect (if named) and the named PIncDect variants on one ΔG."""
    row = {}
    if "IncDect" in names:
        # the paper's cost model charges IncDect for identifying G_dΣ(ΔG) too
        result = Detector(rules, engine="incremental").run_incremental(graph, delta, graph_after=updated)
        row["IncDect"] = result.cost + result.neighborhood_size
    for name in names:
        if name in POLICIES:
            options = DetectionOptions(policy=POLICIES[name](latency, interval))
            detector = Detector(rules, engine="parallel", processors=processors, options=options)
            row[name] = detector.run_incremental(graph, delta, graph_after=updated).cost
    return row


def _all_four(graph, rules, delta, updated, processors: int) -> dict[str, float]:
    return _batch(graph, rules, processors) | _incremental(graph, rules, delta, updated, processors, ("IncDect", "PIncDect"))


# ---------------------------------------------------------------- expected directions


@dataclass(frozen=True)
class Finding:
    """One cell that breaks an expected direction, with its coordinates."""

    sweep: str
    where: str
    algorithm: str
    expected: str
    got: str

    def __str__(self) -> str:
        return f"{self.sweep}  {self.where}  {self.algorithm}: expected {self.expected}, got {self.got}"


def _where(names, values, along: Optional[str] = None, to: object = None) -> str:
    return " ".join(f"{n}={v}→{to}" if n == along else f"{n}={v}" for n, v in zip(names, values))


@dataclass(frozen=True)
class Trend:
    """How ``algorithm``'s cost moves along one parameter, the others held fixed.

    ``flat``, ``rises`` and ``falls`` are checked between neighbouring cells;
    ``dips`` asks for the lowest cost strictly inside the range (an interior
    optimum), so a line whose minimum sits at either end breaks it.
    """

    algorithm: str
    along: str
    direction: str

    def breaks(self, sweep: "Sweep", grid: dict) -> Iterator[Finding]:
        names = list(sweep.params)
        k = names.index(self.along)
        lines: dict[tuple, list] = {}
        for values, costs in grid.items():
            if self.algorithm in costs:
                lines.setdefault(values[:k] + values[k + 1 :], []).append((values, costs[self.algorithm]))
        for line in lines.values():
            if self.direction == "dips":
                yield from self._ends(sweep.name, names, k, line)
                continue
            holds = {"flat": float.__eq__, "rises": float.__lt__, "falls": float.__gt__}[self.direction]
            for (values, cost), (following, next_cost) in zip(line, line[1:]):
                if not holds(float(cost), float(next_cost)):
                    where = _where(names, values, self.along, following[k])
                    got = f"{cost:.2f} → {next_cost:.2f}"
                    yield Finding(sweep.name, where, self.algorithm, f"{self.direction} along {self.along}", got)

    def _ends(self, sweep: str, names, k: int, line) -> Iterator[Finding]:
        if len(line) < 3:
            return
        inside_values, inside = min(line[1:-1], key=lambda cell: cell[1])
        for values, cost in (line[0], line[-1]):
            if cost <= inside:
                got = f"{cost:.2f} at the end vs {inside:.2f} at {self.along}={inside_values[k]}"
                yield Finding(sweep, _where(names, values), self.algorithm, f"lowest inside the {self.along} range", got)


@dataclass(frozen=True)
class Below:
    """``algorithm`` costs less than ``other`` (an algorithm or a number) in every cell.

    ``upto = (parameter, value)`` limits the check to the cells whose
    parameter is at most ``value``, where the paper's claim stops.
    """

    algorithm: str
    other: Union[str, float]
    upto: Optional[tuple[str, float]] = None

    def breaks(self, sweep: "Sweep", grid: dict) -> Iterator[Finding]:
        names = list(sweep.params)
        for values, costs in grid.items():
            cell = dict(zip(names, values))
            if self.upto and cell[self.upto[0]] > self.upto[1]:
                continue
            bound = self.other if not isinstance(self.other, str) else costs.get(self.other)
            if self.algorithm in costs and bound is not None and not costs[self.algorithm] < bound:
                got = f"{costs[self.algorithm]:.2f} vs {bound:.2f}"
                yield Finding(sweep.name, _where(names, values), self.algorithm, f"below {self.other}", got)


# ---------------------------------------------------------------- the grid


@dataclass(frozen=True)
class Sweep:
    """A grid declaration: parameters, a reset hook per input, a job per cell, expected directions."""

    name: str
    title: str
    params: Mapping[str, tuple]
    reset: Callable[[Base, object], tuple]
    job: Callable[..., dict[str, float]]
    expect: tuple = ()


def run(sweep: Sweep, base: Base = BENCHMARK) -> list[dict]:
    """Run every cell of ``sweep``; one flat row per (cell, algorithm), in grid order.

    ``reset(base, input)`` runs once per value of the first parameter, and
    ``job(base, cell, *inputs)`` once per cell.
    """
    rows: list[dict] = []
    names = list(sweep.params)
    current, inputs = object(), ()
    for values in itertools.product(*sweep.params.values()):
        if values[0] != current:
            current, inputs = values[0], sweep.reset(base, values[0])
        cell = dict(zip(names, values))
        for algorithm, cost in sweep.job(base, cell, *inputs).items():
            rows.append({"sweep": sweep.name, **cell, "algorithm": algorithm, "cost": cost})
    return rows


def grid(sweep: Sweep, rows: list[dict]) -> dict[tuple, dict[str, float]]:
    """Regroup flat rows as ``{parameter values: {algorithm: cost}}``, in row order."""
    cells: dict[tuple, dict[str, float]] = {}
    for row in rows:
        cells.setdefault(tuple(row[n] for n in sweep.params), {})[row["algorithm"]] = row["cost"]
    return cells


def findings(sweep: Sweep, rows: list[dict]) -> list[Finding]:
    """Every cell of ``rows`` that breaks one of ``sweep``'s expected directions."""
    cells = grid(sweep, rows)
    return [finding for expectation in sweep.expect for finding in expectation.breaks(sweep, cells)]


def render(sweep: Sweep, rows: list[dict]) -> str:
    """One table (a row per cell, a column per algorithm), then the findings."""
    cells = grid(sweep, rows)
    algorithms = list(dict.fromkeys(algorithm for costs in cells.values() for algorithm in costs))
    header = [*sweep.params, *algorithms]
    body = [[*map(str, values), *(f"{costs[a]:.2f}" if a in costs else "-" for a in algorithms)] for values, costs in cells.items()]
    widths = [max(map(len, column)) for column in zip(header, *body)]
    lines = [f"== {sweep.name}: {sweep.title}"]
    for row in (header, ["-" * width for width in widths], *body):
        lines.append("  ".join(text.rjust(width) for text, width in zip(row, widths)))
    found = findings(sweep, rows)
    lines.append(f"findings: {len(found)}")
    lines.extend(f"  {finding}" for finding in found)
    return "\n".join(lines)


def header(base: Base = BENCHMARK) -> str:
    """The run's coordinates, printed once: git SHA, CPUs, Python, base configuration."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"# git {sha}  nproc {cpus}  python {platform.python_version()}  base {asdict(base)}"


# ---------------------------------------------------------------- the five experiments

RULE_COUNTS = (10, 20, 30, 40, 50, 60)
ABLATIONS = ("PIncDect_ns", "PIncDect_nb", "PIncDect_NO")


def _exp1_reset(base, dataset):
    # batch detection does not see ΔG: its row is computed once per graph
    graph = _graph(base, dataset)
    rules = _rules(base, graph)
    return graph, rules, _batch(graph, rules, base.processors)


def _exp1_job(base, cell, graph, rules, batch):
    delta, updated = _delta(base, graph, cell["delta"])
    names = ("IncDect", "PIncDect", "PIncDect_NO")
    return batch | _incremental(graph, rules, delta, updated, base.processors, names)


def _exp2_reset(base, size):
    nodes, edges = size
    graph = synthetic_graph(
        num_nodes=int(nodes * base.scale), num_edges=int(edges * base.scale), seed=base.seed + 1, name=f"Synthetic({nodes},{edges})"
    )
    return (graph, _rules(base, graph), *_delta(base, graph))


def _exp3_diameter_reset(base, dataset):
    graph = _graph(base, dataset)
    return (graph, *_delta(base, graph))


def _exp3_diameter_job(base, cell, graph, delta, updated):
    rules = rules_with_diameter(graph, cell["diameter"], count=base.rules_count, seed=base.seed)
    return _all_four(graph, rules, delta, updated, base.processors)


def _exp4_processors_job(base, cell, graph, rules, delta, updated):
    p = cell["p"]
    pdect = Detector(rules, engine="parallel", processors=p).run(graph).cost
    return {"PDect": pdect} | _incremental(graph, rules, delta, updated, p, tuple(POLICIES))


def _exp5_reset(base, dataset):
    if dataset.startswith("Figure1-"):
        return figure1_graphs()[dataset.removeprefix("Figure1-")], example_rules()
    graph = _graph(base, dataset)
    return graph, _rules(base, graph)


def _exp5_job(base, cell, graph, rules):
    found = find_violations(graph, rules)
    if cell["dataset"].startswith("Figure1-"):
        return {"violations": float(len(found))}
    numeric_rules = {rule.name for rule in rules if not rule.is_gfd()}
    numeric = sum(1 for violation in found if violation.rule in numeric_rules)
    return {
        "violations": float(len(found)),
        "numeric_only": float(numeric),
        "numeric_share": numeric / len(found) if found else 0.0,
    }


ALL_FOUR = ("Dect", "PDect", "IncDect", "PIncDect")

SWEEPS = {
    sweep.name: sweep
    for sweep in (
        Sweep(
            "exp1_delta",
            "Exp-1, Figures 4(a)–(d): varying |ΔG| / |G|",
            {"dataset": ("DBpedia", "YAGO2", "Pokec", "Synthetic"), "delta": (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35)},
            _exp1_reset,
            _exp1_job,
            expect=(
                Trend("Dect", "delta", "flat"),
                Trend("PDect", "delta", "flat"),
                Trend("IncDect", "delta", "rises"),
                Trend("PIncDect", "delta", "rises"),
                # the paper: IncDect still wins up to |ΔG| ≈ 33 %
                Below("IncDect", "Dect", upto=("delta", 0.30)),
                Below("PIncDect", "PDect"),
                Below("PIncDect", "PIncDect_NO"),
            ),
        ),
        Sweep(
            "exp2_size",
            "Exp-2, Figure 4(e): varying |G| (Synthetic), |ΔG| = 15 %",
            {"size": ((1000, 2000), (2000, 4000), (3000, 6000), (6000, 8000), (8000, 10000))},
            _exp2_reset,
            lambda base, cell, *inputs: _all_four(*inputs, base.processors),
            expect=(
                *(Trend(algorithm, "size", "rises") for algorithm in ALL_FOUR),
                Below("IncDect", "Dect"),
                Below("PIncDect", "PDect"),
                Below("PIncDect", "IncDect"),
            ),
        ),
        Sweep(
            "exp3_rules",
            "Exp-3, Figures 4(f)–(g): varying ‖Σ‖, |ΔG| = 15 %",
            {"dataset": ("DBpedia", "YAGO2"), "rules": RULE_COUNTS},
            # one Σ of the largest size, restricted per cell
            lambda base, dataset: _prepare(base, dataset, max(RULE_COUNTS)),
            lambda base, cell, graph, rules, delta, updated: _all_four(
                graph, rules.restrict(cell["rules"]), delta, updated, base.processors
            ),
            expect=(
                *(Trend(algorithm, "rules", "rises") for algorithm in ALL_FOUR),
                Below("IncDect", "Dect"),
                Below("PIncDect", "PDect"),
            ),
        ),
        Sweep(
            "exp3_diameter",
            "Exp-3, Figure 4(h): varying dΣ, |ΔG| = 15 %",
            {"dataset": ("DBpedia",), "diameter": (2, 3, 4, 5, 6)},
            _exp3_diameter_reset,
            _exp3_diameter_job,
            expect=tuple(Trend(algorithm, "diameter", "rises") for algorithm in ALL_FOUR),
        ),
        Sweep(
            "exp4_processors",
            "Exp-4, Figures 4(i)–(l): varying p, |ΔG| = 15 %",
            {"dataset": ("DBpedia", "YAGO2", "Pokec", "Synthetic"), "p": (4, 8, 12, 16, 20)},
            _prepare,
            _exp4_processors_job,
            expect=(
                Trend("PDect", "p", "falls"),
                Trend("PIncDect", "p", "falls"),
                Below("PIncDect", "PDect"),
                *(Below("PIncDect", ablation) for ablation in ABLATIONS),
            ),
        ),
        Sweep(
            "exp4_latency",
            "Exp-4, Figure 4(m): varying the latency parameter C",
            {"dataset": ("Pokec",), "C": (20, 40, 60, 80, 100)},
            _prepare,
            lambda base, cell, *inputs: _incremental(
                *inputs, base.processors, ("PIncDect", "PIncDect_nb"), latency=cell["C"]
            ),
            expect=(Trend("PIncDect", "C", "dips"), Below("PIncDect", "PIncDect_nb")),
        ),
        Sweep(
            "exp4_interval",
            "Exp-4, Figure 4(n): varying the monitoring interval intvl",
            {"dataset": ("YAGO2",), "intvl": (15, 30, 45, 50, 65)},
            _prepare,
            lambda base, cell, *inputs: _incremental(
                *inputs, base.processors, ("PIncDect", "PIncDect_ns"), interval=cell["intvl"]
            ),
            expect=(Trend("PIncDect", "intvl", "dips"), Below("PIncDect", "PIncDect_ns")),
        ),
        Sweep(
            "exp5_effectiveness",
            "Exp-5: violations caught, and those only non-GFD rules catch",
            {"dataset": ("Figure1-G1", "Figure1-G2", "Figure1-G3", "Figure1-G4", "DBpedia", "YAGO2", "Pokec")},
            _exp5_reset,
            _exp5_job,
            # the paper: 92 % of the errors need NGDs, so some are GFD-expressible
            expect=(Below("numeric_share", 1.0),),
        ),
    )
}


def main(names: list[str]) -> None:
    unknown = sorted(set(names) - set(SWEEPS))
    if unknown:
        raise SystemExit(f"unknown sweep(s) {unknown}; choose from {list(SWEEPS)}")
    print(header())
    for name in names or SWEEPS:
        print()
        print(render(SWEEPS[name], run(SWEEPS[name])))


if __name__ == "__main__":
    main(sys.argv[1:])
