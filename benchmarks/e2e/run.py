"""One end-to-end benchmark: four fixed workloads, every metric by name.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--trace [0|1]]
                                  [--smoke] [--out FILE] [--seconds S]
    python3 benchmarks/e2e/run.py --compare A.ndjson B.ndjson
    python3 benchmarks/e2e/run.py --pin

Each workload runs in a fresh subprocess: inputs are generated from the seed
and written to files, the reference detector computes what every result must
be, the stages are timed, and every metric ``BENCHMARK.json`` declares is
printed as ``workload metric value unit``.  The last line of standard output
is one JSON object; with a single ``--workload`` it has exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

How much a run measures is fixed (``stages.FULL``).  ``--seconds`` exists
because the driver of ``BENCHMARK.json`` passes its ``run_seconds``; any
other value is refused.

An untraced run gives the end-to-end metrics.  ``--trace`` is a separate run
that wraps the calls into each layer in spans and gives the per-layer ones.
The exit code is non-zero when any operation failed or an input drifted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

DEFAULT_SEED = 12
PINS = HERE / "pinned_inputs.json"
WORK = ROOT / ".bench_work"
EXIT_FAILED, EXIT_USAGE, EXIT_DRIFTED = 1, 2, 3

#: end-to-end metric -> the sample series whose median, at nominal machine speed, it is
FROM_SAMPLES = {
    "detect_s": "detect_s",
    "detect_frozen_s": "detect_frozen_s",
    "inc_update_p50_ms": "inc_update_ms",
    "svc_update_p50_ms": "svc_update_ms",
}


def declared() -> dict:
    """Return ``BENCHMARK.json``: the names, units and bounds this command must print."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def spread(samples: list[float]) -> dict:
    """Return sample count, median and quartiles of a series."""
    quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    return {"samples": len(samples), "median": statistics.median(samples), "q1": quartiles[0], "q3": quartiles[2]}


def environment() -> dict:
    """Return what every output row carries about the machine and the tree."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=False
        )
        sha = done.stdout.strip() if done.returncode == 0 else "unknown"
    except OSError:
        sha = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
        "repro_env": {key: value for key, value in sorted(os.environ.items()) if key.startswith("REPRO_")},
    }


# ------------------------------------------------------------------------ worker


def _end_to_end(outcome) -> dict:
    """Reduce an untraced run's samples to the end-to-end metrics: at nominal machine speed, set-up half way."""
    import stages

    setups = outcome.samples["setup_s"]
    metrics = {
        "setup_s": {
            "value": outcome.at_nominal_speed("setup_s", stages.SETUP_FOLLOWS),
            "raw": statistics.median(setups),
            "speed": outcome.speed("setup_s"),
            **spread(setups),
        }
    }
    for name, series in FROM_SAMPLES.items():
        samples = outcome.samples[series]
        metrics[name] = {
            "value": outcome.at_nominal_speed(series),
            "raw": statistics.median(samples),
            "speed": outcome.speed(series),
            **spread(samples),
        }
    usage = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    # the largest process the workload needed: this one or a server
    metrics["peak_rss_mb"] = {"value": usage / 1024.0}
    metrics["fail_share"] = {"value": outcome.failed / max(outcome.attempted, 1)}
    return metrics


def check_pins(workload: str, plan: str, seed: int, digests: dict) -> str | None:
    """Return a message when the default seed's inputs differ from the pinned digests."""
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    pinned = pins.get(plan, {}).get(workload)
    if seed != pins["seed"] or pinned is None or pinned == digests:
        return None
    return f"workload drifted: {workload} ({plan} plan, seed {seed}) generates {digests}, pinned {pinned}"


def worker(args: argparse.Namespace) -> int:
    """Run one workload in this process and print its result document."""
    import inputs
    import stages

    plan = stages.SMOKE if args.smoke else stages.FULL
    spec = inputs.workload(args.workload)
    directory = WORK / f"{spec.name}-{args.seed}-{os.getpid()}"
    try:
        started = time.perf_counter()
        prepared = stages.prepare(spec, args.seed, plan, directory, args.corrupt_reference)
        prepare_s = time.perf_counter() - started
        drift = check_pins(spec.name, plan.name, args.seed, prepared.input_digests)
        if drift:
            print(drift, file=sys.stderr)
            return EXIT_DRIFTED
        outcome = stages.Outcome()
        if args.trace:
            import layers

            metrics = layers.traced_run(prepared, plan, outcome)
        else:
            ready = stages.setup_stage(prepared, plan.setups, outcome)
            # one restart checks that what the server acknowledged survives kill -9; the traced run times three
            stages.service_stage(ready, prepared, plan, 1, outcome)
            stages.batch_stage(ready, prepared, plan, outcome)
            stages.incremental_stage(ready, prepared, outcome)
            metrics = _end_to_end(outcome)
        # the benchmark's own part of set-up (generate, write, reference): not in setup_s
        metrics["bench.prepare_s"] = {"value": prepare_s}
        document = {
            "workload": spec.name,
            "seed": args.seed,
            "trace": args.trace,
            "plan": dataclasses.asdict(plan),
            "input_digests": prepared.input_digests,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "notes": outcome.notes,
            "metrics": metrics,
        }
        print(json.dumps(document))
        return 0
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK.rmdir()  # the last run out leaves nothing behind
        except OSError:
            pass


# ------------------------------------------------------------------------ parent


def run_workload(args: argparse.Namespace, name: str) -> dict | int:
    """Run one workload in a fresh subprocess; return its document, or its exit code if it failed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--worker", "--workload", name]
    command += ["--seed", str(args.seed), "--trace", str(args.trace)]
    command += ["--smoke"] * args.smoke + ["--corrupt-reference"] * args.corrupt_reference
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        print(f"{name}: worker exited with code {done.returncode}", file=sys.stderr)
        return done.returncode
    return json.loads(done.stdout.strip().splitlines()[-1])


def contract_result(document: dict, wanted: list[dict]) -> dict:
    """Return the ``correct/attempted/failed/metrics`` object for the declared metrics.

    A per-layer metric whose probe was skipped is left out (the worker's
    note says why); it is never reported as a number it did not measure.
    """
    metrics = {}
    for entry in wanted:
        row = document["metrics"].get(entry["name"])
        if row is None:
            print(f"{document['workload']} {entry['name']} skipped", file=sys.stderr)
            continue
        if not math.isfinite(row["value"]):
            raise ValueError(f"{document['workload']}: {entry['name']} is not finite")
        metrics[entry["name"]] = {"value": row["value"], "unit": entry["unit"]}
    return {
        "correct": document["failed"] == 0,
        "attempted": max(document["attempted"], 1),
        "failed": document["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of every generated input")
    parser.add_argument("--seconds", type=float, help="must be run_seconds of BENCHMARK.json: a run's length is fixed")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, two reps: checks the harness, not the system")
    parser.add_argument("--out", help="append this run's rows to FILE, one JSON document per line")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out files")
    parser.add_argument("--pin", action="store_true", help="rewrite pinned_inputs.json for the default seed")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"{ROOT} holds no src/repro to benchmark", file=sys.stderr)
        return EXIT_USAGE
    spec = declared()
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        print(f"--seconds {args.seconds:g}: a run's length is fixed at run_seconds = {spec['run_seconds']}", file=sys.stderr)
        return EXIT_USAGE
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], spec)
    if args.pin:
        return pin()
    if args.worker:
        return worker(args)

    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; expected one of {names}", file=sys.stderr)
        return EXIT_USAGE
    machine = environment()
    if machine["repro_env"]:
        print(f"warning: REPRO_* variables are set and change what is measured: {machine['repro_env']}", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    results, status = {}, 0
    for name in [args.workload] if args.workload else names:
        document = run_workload(args, name)
        if isinstance(document, int):
            return document
        for note in document["notes"]:
            print(f"{name}: note: {note}", file=sys.stderr)
        units = {entry["name"]: entry["unit"] for entry in wanted} | {"fail_share": "ratio"}
        for metric, row in document["metrics"].items():
            raw = f"  (raw {row['raw']:.6g}, machine speed {row['speed']:.3f})" if "speed" in row else ""
            # an undeclared row (an intermediate the --out file keeps) names its unit in its suffix
            unit = units.get(metric) or metric.rsplit("_", 1)[-1]
            print(f"{name} {metric} {row['value']:.6g} {unit}" + raw)
        results[name] = contract_result(document, wanted)
        if document["failed"]:
            status = EXIT_FAILED
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({**machine, **document}) + "\n")
    print(json.dumps(results[args.workload] if args.workload else {"workloads": results}))
    return status


def pin() -> int:
    """Write the digests of the default seed's input documents, full and smoke size."""
    import inputs
    import stages

    pins: dict = {"seed": DEFAULT_SEED}
    for plan in (stages.FULL, stages.SMOKE):
        pins[plan.name] = {
            workload.name: {
                name: inputs.digest(document)
                for name, document in inputs.generate(
                    workload, DEFAULT_SEED, plan.shrink, plan.stream_length(workload)
                ).items()
            }
            for workload in inputs.WORKLOADS
        }
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
