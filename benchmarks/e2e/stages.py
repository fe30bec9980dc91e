"""Set-up and the timed stages of one workload, through public entry points only.

The stages touch the library through ``Detector``, ``DetectionOptions``,
``load_graph``, ``RuleSet.from_json``, ``apply_update``, ``update_from_list``,
``ServiceClient``, ``STORE_REGISTRY`` and the CLI — the surface the planned
refactors keep — so a PR that deletes an internal path cannot break the
benchmark it is judged by.

One closed loop, one client: every operation starts when the previous one
has returned.  Each result is reduced to canonical form and compared by
digest to what :mod:`reference` computed in set-up; a mismatch, an exception
or a non-2xx reply is a failed operation.

Machine speed.  The sandbox this benchmark was written on runs the same
detection anywhere between 1x and 1.5x its best time, drifting over tens of
seconds (README, "Why times are calibrated"), so a raw median says as much
about the neighbours as about the code.  Every timed detection and update is
therefore paired with one :class:`Calibration` sample — a fixed walk over a fixed
random graph in plain dictionaries, no library code — taken right before it, and
a series is reported *at nominal speed*: the median of ``operation time /
its calibration sample``, times the nominal calibration time.  The raw
medians are printed beside each value and kept in the ``--out`` rows.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import reference
from repro.core.ngd import RuleSet
from repro.detect import DetectionOptions, Detector
from repro.graph.io import load_graph, update_from_list
from repro.graph.store import STORE_REGISTRY
from repro.graph.updates import apply_update
from repro.service import ServiceClient

SRC = Path(__file__).resolve().parents[2] / "src"
GRAPH_NAME = "bench"
CATALOG = "bench"
SERVER_START_TIMEOUT = 60.0
#: ``setup_s`` is scaled by the calibration walk to this power (see :func:`setup_stage`)
SETUP_FOLLOWS = 0.5


@dataclass(frozen=True)
class Plan:
    """How much one run measures (input shrink factor, repetitions, stream length)."""

    #: also what the input documents depend on besides the seed: the key of their pinned digests
    name: str
    shrink: int
    reps: int
    #: ΔG batches in the update stream; ``None`` = the workload's own length (``Workload.batches``)
    updates: int | None
    #: a full detection is streamed, and the incremental state checked, after every this many updates
    detect_every: int
    restarts: int
    setups: int

    def stream_length(self, spec: inputs.Workload) -> int:
        return self.updates or spec.batches


#: the run ``BENCHMARK.json`` declares: its length is fixed here, not by an argument, so
#: both sides of a comparison measure the same work on the same pinned inputs
FULL = Plan(name="full", shrink=1, reps=20, updates=None, detect_every=22, restarts=3, setups=3)
#: checks the harness, not the system
SMOKE = Plan(name="smoke", shrink=8, reps=2, updates=12, detect_every=6, restarts=1, setups=1)


def checkpoint_every(updates: int) -> int:
    """Two checkpoints along a stream of ``updates`` ΔG, then a WAL suffix for recovery to replay."""
    return max(5, (updates - 10) // 2)


@contextlib.contextmanager
def one_cpu():
    """Keep this process, and every process it starts meanwhile, on one of its CPUs.

    For the server and its one client.  The loop is closed — one of the two
    always waits for the other — so sharing a CPU costs them nothing, and it
    takes two things out of a request's time that are the host's and not the
    program's: waking a halted virtual CPU for every hand-over between the
    processes, and a server that runs on another core (another neighbour,
    another speed) than the calibration walk that is meant to tell how fast
    the machine was for that request.
    """
    allowed = sorted(os.sched_getaffinity(0))
    # by pid, so that runs started side by side (the smoke test) do not all choose the same one
    os.sched_setaffinity(0, {allowed[os.getpid() % len(allowed)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Calibration:
    """A fixed piece of work whose time tracks the machine's speed, not the library's.

    Two-hop walks over a fixed random graph held in plain dictionaries, with
    a fresh dictionary per step: the allocation and dictionary traffic of a
    matcher, none of its code.  The graph and the number of steps are the
    same in every run of every workload, so every sample is the same work.

    Taken right before an operation, the walk starts on caches the
    previous operation left cold, as the operation itself does; a walk on
    warm caches followed the machine half as well (README).  How cold
    depends on what ran before, so a walk takes 9 ms after a 6 ms update
    and 17 ms after a detection: values of one (metric, workload) pair
    compare across runs and commits, not across pairs or against a
    stopwatch.  :attr:`NOMINAL_S` — what a walk before a KB detection takes in
    this sandbox's fast hours — only sets the scale.
    """

    NODES = 6_000
    EDGES = 30_000
    NOMINAL_S = 0.016

    def __init__(self) -> None:
        rng = random.Random(0)
        self._successors: dict[str, list[str]] = {f"c{index}": [] for index in range(self.NODES)}
        for _ in range(self.EDGES):
            self._successors[f"c{rng.randrange(self.NODES)}"].append(f"c{rng.randrange(self.NODES)}")

    def walk(self) -> float:
        """Do the fixed work once and return the seconds it took."""
        started = time.perf_counter()
        successors = self._successors
        reached = 0
        for node, targets in successors.items():
            bound = {"x": node}
            for target in targets:
                step = {**bound, "y": target}
                reached += len(step) + len(successors[target])
        return time.perf_counter() - started


@dataclass
class Prepared:
    """The input files of one workload and the digests its results must have."""

    directory: Path
    graph_file: Path
    rules_file: Path
    updates_file: Path
    #: ΔG batches in ``updates_file``
    updates: int
    input_digests: dict
    #: digest of Vio(Σ, G ⊕ ΔG₁ … ΔGₖ) for k = 0, every ``detect_every``-th k, and the last
    expected: dict[int, str]
    calibration: Calibration

    def rules(self) -> RuleSet:
        """Parse the rule file, as every stage does for itself."""
        return RuleSet.from_json(self.rules_file.read_text(encoding="utf-8"))

    def batches(self) -> list[list[dict]]:
        """Read the ΔG documents of the update stream."""
        return json.loads(self.updates_file.read_text(encoding="utf-8"))


@dataclass
class Outcome:
    """Samples per series, the calibration sample paired with each, notes, and the op tally."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    paired: dict[str, list[float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def record(self, series: str, value: float, ok: bool = True, calibration: float | None = None) -> None:
        self.samples.setdefault(series, []).append(value)
        if calibration is not None:
            self.paired.setdefault(series, []).append(calibration)
        self.attempted += 1
        if not ok:
            self.failed += 1

    def speed(self, series: str) -> float:
        """Return nominal / measured calibration time along a series (1.0 = nominal speed)."""
        return Calibration.NOMINAL_S / statistics.median(self.paired[series])

    def at_nominal_speed(self, series: str, follows: float = 1.0) -> float:
        """Return the median of a series with each sample scaled by its own calibration sample.

        ``follows`` is how far the operation follows the walk when the machine
        slows: 1 for library code in this process; a time that is half
        something else is scaled by the walk to the power one half.
        """
        scaled = [
            value * (Calibration.NOMINAL_S / walk) ** follows
            for value, walk in zip(self.samples[series], self.paired[series])
        ]
        return statistics.median(scaled)


def prepare(spec: inputs.Workload, seed: int, plan: Plan, directory: Path, corrupt: bool = False) -> Prepared:
    """Generate the documents, write them, and run the reference detector.

    This is the benchmark's own work, done once and left out of ``setup_s``:
    no change to the library can move it.
    """
    updates = plan.stream_length(spec)
    documents = inputs.generate(spec, seed, plan.shrink, updates)
    directory.mkdir(parents=True, exist_ok=True)
    files = {}
    for name in ("graph", "rules", "updates"):
        files[name] = directory / f"{name}.json"
        files[name].write_text(json.dumps(documents[name]), encoding="utf-8")
    expected = {}
    state = inputs.GraphState(documents["graph"])
    for done in range(updates + 1):
        if done:
            state.apply(documents["updates"][done - 1])
        if done % plan.detect_every == 0 or done == updates:
            expected[done] = reference.violations_digest(reference.detect(state.document(), documents["rules"]))
    if corrupt:
        expected = {done: "0" * 64 for done in expected}
    return Prepared(
        directory=directory,
        graph_file=files["graph"],
        rules_file=files["rules"],
        updates_file=files["updates"],
        updates=updates,
        input_digests={name: inputs.digest(documents[name]) for name in files},
        expected=expected,
        calibration=Calibration(),
    )


def digest_of(violations) -> str:
    """Return the comparison digest of an iterable of ``Violation`` objects."""
    return reference.violations_digest(violation.to_dict() for violation in violations)


def timed(outcome: Outcome, series: str, operation, expected: str, calibration: Calibration | None = None) -> None:
    """Run ``operation`` (returns a digest), record its time, count a wrong result as failed."""
    walk = calibration.walk() if calibration is not None else None
    started = time.perf_counter()
    try:
        ok = operation() == expected
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, the run goes on
        outcome.notes.append(f"{series}: {type(exc).__name__}: {exc}")
        ok = False
    outcome.record(series, time.perf_counter() - started, ok, walk)


def frozen_engine() -> str | None:
    """Return the name of a read-only storage engine, if the registry has one."""
    for name in sorted(STORE_REGISTRY):
        if not getattr(STORE_REGISTRY[name], "supports_mutation", True):
            return name
    return None


def processors() -> int:
    return min(len(os.sched_getaffinity(0)), 4)


def child_environment() -> dict:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), environment.get("PYTHONPATH")]))
    return environment


# ------------------------------------------------------------------------ set-up


class Server:
    """``repro-detect serve`` as a subprocess on one data directory."""

    def __init__(self, data_dir: Path, checkpoint_every: int, log: Path) -> None:
        self._command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--quiet"]
        self._command += ["--data-dir", str(data_dir), "--checkpoint-every", str(checkpoint_every)]
        self._log = log
        self.process: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> None:
        """Spawn the server and wait for its ready line."""
        with open(self._log, "ab") as log:
            self.process = subprocess.Popen(
                self._command, stdout=subprocess.PIPE, stderr=log, env=child_environment()
            )
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.process.stdout], [], [], max(remaining, 0))
            chunk = os.read(self.process.stdout.fileno(), 4096) if ready else b""
            if not chunk:
                self.kill()
                raise RuntimeError(f"server did not come up; see {self._log}")
            line += chunk
        self.url = line.decode().strip().rsplit(" ", 1)[-1]

    def kill(self) -> None:
        """``kill -9`` the server and reap it."""
        if self.process is not None:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGKILL)
            self.process.wait()
            self.process.stdout.close()
            self.process = None


@dataclass
class Ready:
    """What set-up leaves for the timed stages: inputs loaded, plans held, a server with a session."""

    rules: RuleSet
    graph: object
    frozen: object
    detector: Detector
    plans: object
    server: Server
    client: ServiceClient
    session: str


@one_cpu()  # the server inherits it and keeps it
def setup_stage(prepared: Prepared, setups: int, outcome: Outcome) -> Ready:
    """``setup_s``: everything the library does before the first timed operation.

    Parse the rule file, load the graph file on the default store and on the
    read-only engine, compile the plans the incremental session holds, start
    the server, upload graph and catalog and open the continuous session.
    Done ``setups`` times, each on a data directory of its own; the last one
    is what the stages run on.  The caller kills ``Ready.server``.

    Half of it is a process starting (exec, page faults, reading the
    library), which the calibration walk does not follow, and half is library
    code, which it does: over 30 runs set-up time went with the walk's to the
    power 0.4.  So it is reported half calibrated (``SETUP_FOLLOWS``), which
    leaves at most half of a change in the machine's speed in it either way.
    """
    engine = frozen_engine()
    if engine is None:
        outcome.notes.append("detect_frozen_s: no read-only engine in STORE_REGISTRY; measured on the default store")
    ready = None
    for attempt in range(setups):
        if ready is not None:
            ready.server.kill()
        walk = statistics.median(prepared.calibration.walk() for _ in range(3))
        started = time.perf_counter()
        rules = prepared.rules()
        graph = load_graph(prepared.graph_file)
        frozen = load_graph(prepared.graph_file, store=engine)
        detector = Detector(rules, engine="incremental")
        plans = detector.compile_plans(graph)
        data_dir = prepared.directory / f"data{attempt}"
        server = Server(data_dir, checkpoint_every(prepared.updates), prepared.directory / "server.log")
        server.start()
        try:
            client = ServiceClient(server.url, timeout=120)
            client.register_graph(GRAPH_NAME, graph)
            client.register_rules(CATALOG, rules)
            session = client.create_session(GRAPH_NAME, catalog=CATALOG)["session"]
        except BaseException:
            server.kill()
            raise
        outcome.record("setup_s", time.perf_counter() - started, True, walk)
        ready = Ready(rules, graph, frozen, detector, plans, server, client, session)
    return ready


# ------------------------------------------------------------------ batch stages


def batch_stage(ready: Ready, prepared: Prepared, plan: Plan, outcome: Outcome) -> None:
    """``detect_s`` and ``detect_frozen_s``, a new session per run, taken in turns."""
    expected = prepared.expected[0]

    def detect(target):
        return lambda: digest_of(Detector(ready.rules, engine="batch").run(target).violations)

    # untimed: interned labels and the frozen layout are in place before the first rep
    detect(ready.graph)()
    detect(ready.frozen)()
    for _ in range(plan.reps):
        timed(outcome, "detect_s", detect(ready.graph), expected, prepared.calibration)
        timed(outcome, "detect_frozen_s", detect(ready.frozen), expected, prepared.calibration)


def parallel_stage(prepared: Prepared, reps: int, outcome: Outcome, workers: int | None = None) -> None:
    """``detect_par_s``: real worker processes, a cold pool for every run."""
    rules = prepared.rules()
    graph = load_graph(prepared.graph_file)
    options = DetectionOptions(execution="processes")
    for _ in range(reps):
        # a new session per rep: the pool starts cold, as a CLI user's does
        session = Detector(rules, engine="parallel", processors=workers or processors(), options=options)
        timed(outcome, "detect_par_s", lambda: digest_of(session.run(graph).violations), prepared.expected[0])


def cli_stage(prepared: Prepared, reps: int, outcome: Outcome) -> None:
    """``cli_run_s``: spawn ``python -m repro.cli run … --format json`` and parse what it prints."""
    command = [sys.executable, "-m", "repro.cli", "run", str(prepared.graph_file)]
    command += ["--rules-file", str(prepared.rules_file), "--format", "json"]

    def run() -> str:
        done = subprocess.run(command, capture_output=True, env=child_environment(), timeout=120, check=False)
        if done.returncode not in (0, 1):  # 1 = violations found, the expected outcome
            raise RuntimeError(f"repro.cli run exited {done.returncode}: {done.stderr.decode()[-300:]}")
        return reference.violations_digest(json.loads(done.stdout)["violations"])

    for _ in range(reps):
        timed(outcome, "cli_run_s", run, prepared.expected[0])


# ------------------------------------------------------------- incremental stage


def incremental_stage(ready: Ready, prepared: Prepared, outcome: Outcome) -> None:
    """``inc_update_*``: parse ΔG, apply it, run IncDect with the session's plans."""
    graph, detector = ready.graph, ready.detector
    violations = Detector(ready.rules, engine="batch").run(graph).violations
    for index, entries in enumerate(prepared.batches(), start=1):
        walk = prepared.calibration.walk()
        started = time.perf_counter()
        try:
            delta = update_from_list(entries)
            after = apply_update(graph, delta)
            result = detector.run_incremental(graph, delta, graph_after=after, plans=ready.plans)
        except Exception as exc:  # noqa: BLE001 - counted; the stream cannot go on past it
            outcome.notes.append(f"inc_update {index}: {type(exc).__name__}: {exc}")
            outcome.record("inc_update_ms", (time.perf_counter() - started) * 1000.0, False, walk)
            break
        elapsed = time.perf_counter() - started
        graph = after
        violations = violations.apply_delta(result.delta)
        # Vio(G0) ⊕ ΣΔVio against the reference run on the graph so far
        ok = index not in prepared.expected or digest_of(violations) == prepared.expected[index]
        outcome.record("inc_update_ms", elapsed * 1000.0, ok, walk)


# ----------------------------------------------------------------- service stage


def _drain_detect(client: ServiceClient, outcome: Outcome, expected: str) -> None:
    """One full NDJSON detection: time to first violation and to the summary."""
    started = time.perf_counter()
    first = None
    violations = []
    try:
        for record in client.stream_detect(GRAPH_NAME, catalog=CATALOG):
            if record["type"] == "violation":
                if first is None:
                    first = time.perf_counter() - started
                violations.append(record)
        ok = reference.violations_digest(violations) == expected
    except Exception as exc:  # noqa: BLE001 - counted as a failed request
        outcome.notes.append(f"svc_detect: {type(exc).__name__}: {exc}")
        ok = False
    elapsed = time.perf_counter() - started
    outcome.record("svc_detect_s", elapsed, ok)
    outcome.samples.setdefault("svc_first_violation_ms", []).append((first or elapsed) * 1000.0)


@one_cpu()
def service_stage(ready: Ready, prepared: Prepared, plan: Plan, restarts: int, outcome: Outcome) -> None:
    """``svc_update_*`` and the rest of what an operator runs, against the server set-up started.

    One client posts the ΔG stream and drains a full streamed detection after
    every ``plan.detect_every``-th update; the session state is compared with
    the reference; then the server is killed with ``kill -9`` and restarted
    on its data directory ``restarts`` times, and must come back with that
    state.  Client and server share one CPU (:func:`one_cpu`).  Kills the
    server in the end.
    """
    server, client = ready.server, ready.client
    try:
        for index, entries in enumerate(prepared.batches(), start=1):
            walk = prepared.calibration.walk()
            started = time.perf_counter()
            try:
                client.post_update(GRAPH_NAME, update_from_list(entries))
                ok = True
            except Exception as exc:  # noqa: BLE001 - a non-2xx reply is a failed op
                outcome.notes.append(f"svc_update {index}: {type(exc).__name__}: {exc}")
                ok = False
            outcome.record("svc_update_ms", (time.perf_counter() - started) * 1000.0, ok, walk)
            if index % plan.detect_every == 0:
                _drain_detect(client, outcome, prepared.expected[index])

        final = prepared.expected[prepared.updates]
        state = client.session_state(ready.session)
        outcome.attempted += 1
        if reference.violations_digest(state["violations"]) != final:
            outcome.notes.append("service session state differs from the reference on the final graph")
            outcome.failed += 1

        def recover() -> str:
            server.start()
            recovered = ServiceClient(server.url, timeout=120)
            health = recovered.health()
            if health.get("status") != "ok":
                raise RuntimeError("recovered server is not healthy")
            replayed = health.get("persistence", {}).get("recovered", {}).get("replayed", 0)
            outcome.samples.setdefault("recover_replayed", []).append(replayed)
            return reference.violations_digest(recovered.session_state(ready.session)["violations"])

        for _ in range(restarts):
            server.kill()
            timed(outcome, "recover_s", recover, final)
    finally:
        server.kill()
