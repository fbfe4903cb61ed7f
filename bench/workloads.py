"""The six workloads: what each one starts, drives, measures and checks.

Every serving workload is a closed loop: ``CLIENTS`` threads in this
process, one keep-alive connection (or one in-process caller) each, the
next request only after the previous reply.  HTTP servers and offline
passes are child processes this harness owns (``procs.ChildSet``).

One run of one workload:

1. make the inputs from the seed (``inputs.py``);
2. build the snapshot in a fresh child (``offline_pass.py``) - for the
   offline workloads this *is* the measured operation;
3. start the serving tier ``SETUP_REPS`` times and keep the last;
4. drive the loop for ``--seconds`` (with ``--trace 1``: half with spans
   off, half with spans on, then the ladder in ``ladder.py``);
5. off the clock, check the outputs bit for bit against the unsharded
   in-process ``ProximityModel.rank``;
6. stop every child and make sure none is left.

``setup_s`` is the sum of the set-up stages: input generation and the
snapshot build (one sample each) plus the median start of the serving
tier.  The offline workloads have no serving tier; their third stage is
the median start-up of the pass child (interpreter, imports, inputs).
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import math
import os
import pickle
import shutil
import socket
import statistics
import sys
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import procs
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

CLIENTS = min(os.cpu_count() or 1, 4)
SHARDS = 2
SETUP_REPS = 3
#: cold starts a traced run times
COLDSTART_REPS = 5
#: equal slices of a measured loop; the quietest one is reported
SLICES = 5
#: requests compared with the oracle per workload
CHECKED = 64
#: seconds one child may take before the harness gives up on it
CHILD_TIMEOUT = 170.0
#: a Unix socket path holds 107 bytes; workers bind TMPDIR/repro-serving-XXXXXXXX/shardN-rN.sock
MAX_TMPDIR = 60


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to: ran and found a failure)."""


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    kind: str  # "offline" | "http" | "lib" | "update"
    backend: str  # shard backend of the serving tier
    stream: Callable[..., Iterator[inputs.Request]]
    workers: int = 1  # offline build workers


WORKLOADS = {
    w.name: w
    for w in (
        Workload("offline_deep", "deep", "offline", "thread", inputs.uniform_stream),
        Workload("offline_par", "deep", "offline", "thread", inputs.uniform_stream,
                 workers=max(os.cpu_count() or 1, 2)),
        Workload("http_zipf", "wide", "http", "thread", inputs.zipf_stream),
        Workload("http_cold_process", "wide", "http", "process", inputs.uniform_stream),
        Workload("lib_batch_process", "wide", "lib", "process", inputs.batch_stream),
        Workload("update_mixed", "wide", "update", "thread", inputs.batch_stream),
    )
}


@dataclass
class Run:
    """State of one run: work directory, children, tracer, tallies."""

    workload: Workload
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    workdir: Path = field(init=False)
    children: procs.ChildSet = field(init=False)
    tracer: Tracer = field(init=False)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    setup: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.workdir = OUT / f"w{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
        # same seed, same set iteration order, same work
        env["PYTHONHASHSEED"] = "0"
        tmp = self.workdir / "tmp"
        if len(str(tmp)) <= MAX_TMPDIR:
            # keep the program's temporary files inside the checkout too
            tmp.mkdir(exist_ok=True)
            env["TMPDIR"] = os.environ["TMPDIR"] = str(tmp)
        self.children = procs.ChildSet(env)
        self.tracer = Tracer(self.workload.name, enabled=False)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def check(self, ok: bool, what: str) -> None:
        """One correctness check: attempted, and failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def close(self) -> None:
        for pid in self.children.close():
            self.fail(f"process {pid} outlived the run")
        shutil.rmtree(self.workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------
@contextmanager
def harness_heap_frozen():
    """Keep the collector off the harness's own heap while the program runs.

    The program's allocations trigger collections that would otherwise
    walk the generated graph, the request streams and the samples taken
    so far: 15 % of a cold start, and none of it the program's doing.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile (the sample itself when there is one)."""
    return sorted_values[max(math.ceil(p * len(sorted_values)), 1) - 1]


@dataclass
class Loop:
    """Successful ops of one loop as (seconds since its start, latency)."""

    ops: list[tuple[float, float]] = field(default_factory=list)
    wall: float = 0.0

    @property
    def latencies(self) -> list[float]:
        return [latency for _done, latency in self.ops]

    def summary(self) -> dict[str, float]:
        """The quietest of ``SLICES`` equal slices of the loop.

        The sandbox's neighbours slow the machine for seconds at a time,
        always in one direction; the slice they left alone is the
        program's own speed, and it repeats from run to run where the
        whole-loop median does not.
        """
        width = self.wall / SLICES
        slices = [[lat for done, lat in self.ops if i * width <= done < (i + 1) * width]
                  for i in range(SLICES)]
        # an op longer than a slice leaves slices empty: fall back to the loop
        if any(len(ops) < 3 for ops in slices):
            slices, width = [self.latencies], self.wall
        return {
            "op_p50_ms": min(statistics.median(ops) for ops in slices) * 1e3,
            "ops_per_s": max(len(ops) for ops in slices) / width,
        }


def drive(run: Run, clients: list[Callable], streams: list[Iterator], seconds: float,
          span: str) -> Loop:
    """Closed loop: client i sends its stream's requests back to back."""
    loop = Loop()
    lock = threading.Lock()

    def client(i: int) -> None:
        mine: list[tuple[float, float]] = []
        attempted = 0
        for j, request in enumerate(streams[i]):
            attempted += 1
            with run.tracer.span(span, "bench", op_id=f"{i}.{j}"):
                start = time.perf_counter()
                error = f"{span}: refused {request!r}"
                try:
                    ok = clients[i](request)
                except Exception as exc:  # noqa: BLE001 - counted, loop goes on
                    ok = False
                    error = f"{span}: {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
            # a failed request has no latency to report
            if ok:
                mine.append((start + elapsed - started, elapsed))
            else:
                with lock:
                    run.fail(error)
            if time.perf_counter() >= stop_at:
                break
        with lock:
            loop.ops.extend(mine)
            run.attempted += attempted

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(clients))]
    with harness_heap_frozen():
        started = time.perf_counter()
        stop_at = started + seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    loop.wall = time.perf_counter() - started
    if not loop.ops:
        raise BenchError(f"{span}: no operation succeeded: {run.errors}")
    return loop


def measure(run: Run, clients, streams, span: str) -> tuple[Loop, Loop | None]:
    """The untraced loop, and with ``--trace 1`` a second one with spans on."""
    if not run.trace:
        return drive(run, clients, streams, run.seconds, span), None
    plain = drive(run, clients, streams, run.seconds / 2, span)
    run.tracer.enabled = True
    return plain, drive(run, clients, streams, run.seconds / 2, span)


def bits(ranking) -> list[tuple[str, str]]:
    """A ranking as (node, float bits): equal iff ids, scores and order are."""
    return [(str(node), float(score).hex()) for node, score in ranking]


# ----------------------------------------------------------------------
# the offline pass child
# ----------------------------------------------------------------------
def write_inputs(run: Run, dataset, spec: inputs.DatasetSpec, users: list[str]) -> Path:
    checks = itertools.islice(inputs.uniform_stream(users, run.seed, 10_000), CHECKED)
    path = run.workdir / "inputs.pkl"
    with open(path, "wb") as out:
        pickle.dump(
            {
                "dataset": dataset,
                "miner_config": spec.miner_config,
                "seed": run.seed,
                "requests": [(cls, queries[0], k) for cls, queries, k in checks],
            },
            out,
        )
    return path


def offline_pass(run: Run, inputs_path: Path, workers: int, trace: bool) -> dict:
    """Run one pass in a fresh child; its result plus wall and start-up time."""
    snapshot = run.workdir / "snapshot"
    shutil.rmtree(snapshot, ignore_errors=True)
    result_path = run.workdir / "pass.json"
    started = time.perf_counter()
    proc = run.children.spawn(
        [sys.executable, str(BENCH / "offline_pass.py"), "--inputs", str(inputs_path),
         "--snapshot", str(snapshot), "--result", str(result_path),
         "--workers", str(workers), "--trace", str(int(trace))]
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        run.children.stop(proc)
    wall = time.perf_counter() - started
    if code != 0:
        raise BenchError(f"offline pass exited with code {code}")
    result = json.loads(result_path.read_text())
    result.update(wall_s=wall, startup_s=wall - result["busy_s"], snapshot=snapshot)
    run.check(result["mismatches"] == 0,
              f"{result['mismatches']} of {result['checked']} rankings differ after cold start")
    if "parallel_check" in result:
        run.check(result["parallel_check"]["identical"],
                  "parallel build of the catalog sample is not byte-identical to the sequential one")
    return result


# ----------------------------------------------------------------------
# serving sessions: what the measured loop talks to
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def http_get(conn: http.client.HTTPConnection, path: str) -> tuple[int, bytes]:
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        conn.close()  # the next request reconnects
        raise


def query_path(request: inputs.Request) -> str:
    class_name, queries, k = request
    return f"/query?class={class_name}&query={queries[0]}&k={k}"


class HttpSession:
    """``serve_target.py`` in a child; clients are keep-alive connections."""

    #: requests per client before the clock starts (router build, fleet start)
    WARMUP = 4

    def __init__(self, run: Run, data: "Data"):
        self.run = run
        self.port = free_port()
        self.proc = run.children.spawn(
            [sys.executable, str(BENCH / "serve_target.py"), "--inputs", str(data.inputs_path),
             "--snapshot", str(data.snapshot), "--backend", run.workload.backend,
             "--listen", f"127.0.0.1:{self.port}"]
        )
        deadline = time.monotonic() + 60.0
        while True:
            try:
                if http_get(self.connection(), "/health")[0] == 200:
                    break
            except (OSError, http.client.HTTPException):
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError("the HTTP target did not come up")
            time.sleep(0.01)
        self.connections = [self.connection() for _ in range(CLIENTS)]

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)

    def clients(self) -> list[Callable]:
        return [lambda request, conn=conn: http_get(conn, query_path(request))[0] == 200
                for conn in self.connections]

    def rankings(self, requests: list[inputs.Request]) -> list:
        """Per request its served rankings (None where the GET failed)."""
        served: list = [None] * len(requests)

        def fetch(client: int) -> None:
            for i in range(client, len(requests), CLIENTS):
                status, body = http_get(self.connections[client], query_path(requests[i]))
                if status == 200:
                    served[i] = [json.loads(body)["results"]]

        threads = [threading.Thread(target=fetch, args=(c,)) for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return served

    def stats(self) -> dict:
        return json.loads(http_get(self.connections[0], "/stats")[1])

    def pids(self) -> list[int]:
        return [self.proc.pid, *procs.descendants(self.proc.pid)]

    def close(self) -> None:
        for conn in self.connections:
            conn.close()
        self.run.children.stop(self.proc)


class LibSession:
    """The engine in this process; one caller, ``query_many`` per request."""

    WARMUP = 4

    def __init__(self, run: Run, data: "Data"):
        from repro import SemanticProximitySearch

        tier = {"serving_workers": 1} if run.workload.backend == "thread" else {"replicas": 1}
        # updates mutate the graph: the oracle keeps the original
        self.engine = SemanticProximitySearch.from_index(
            data.snapshot, data.dataset.graph.copy(), mmap=True, shards=SHARDS,
            serving_backend=run.workload.backend, **tier,
        )

    def call(self, request: inputs.Request) -> bool:
        class_name, queries, k = request
        return len(self.engine.query_many(class_name, queries, k=k)) == len(queries)

    def clients(self) -> list[Callable]:
        return [self.call]

    def rankings(self, requests: list[inputs.Request]) -> list:
        return [self.engine.query_many(cls, queries, k=k) for cls, queries, k in requests]

    def pids(self) -> list[int]:
        return [os.getpid(), *procs.descendants(os.getpid())]

    def close(self) -> None:
        self.engine.close()


class UpdateSession(LibSession):
    """Writes beside reads: one edge toggled, then four batches, per cycle."""

    BATCHES = 4
    WARMUP = 2  # one edge removed and re-added

    def __init__(self, run: Run, data: "Data"):
        super().__init__(run, data)
        self.run = run
        self.edges = inputs.toggle_edges(data.dataset, run.seed, 64)
        self.cycles = 0

    def call(self, request: list[inputs.Request]) -> bool:
        from repro import GraphDelta

        u, v = self.edges[(self.cycles // 2) % len(self.edges)]
        delta = GraphDelta().add_edge(u, v) if self.cycles % 2 else GraphDelta().remove_edge(u, v)
        tracer, op = self.run.tracer, self.cycles
        self.cycles += 1
        with tracer.span("engine.apply_updates", "search", op_id=op):
            stats = self.engine.apply_updates(delta)
        ok = stats.edits_applied == 1
        for i, batch in enumerate(request):
            name = "engine.query_many[post-update]" if i == 0 else "engine.query_many[steady]"
            with tracer.span(name, "search", op_id=op):
                ok &= super().call(batch)
        return ok

    def restore(self, batches: list[inputs.Request]) -> None:
        """Re-add a removed edge, so the graph is the one the oracle has."""
        if self.cycles % 2:
            self.call(batches)


SESSIONS = {"http": HttpSession, "lib": LibSession, "update": UpdateSession}


def grouped(stream: Iterator, n: int) -> Iterator[list]:
    while True:
        yield list(itertools.islice(stream, n))


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
@dataclass
class Data:
    dataset: object
    users: list[str]
    inputs_path: Path
    snapshot: Path | None = None


def start_session(run: Run, data: Data, streams: list[Iterator]):
    """Start the serving tier and warm it; returns (session, seconds)."""
    started = time.perf_counter()
    session = SESSIONS[run.workload.kind](run, data)
    try:
        for client, stream in zip(session.clients(), streams):
            for request in itertools.islice(stream, session.WARMUP):
                if not client(request):
                    raise BenchError(f"warm-up request refused: {request!r}")
    except BaseException:
        session.close()
        raise
    return session, time.perf_counter() - started


def load_oracle(run: Run, data: Data, request: inputs.Request):
    """The unsharded engine every ranking is checked against.

    A traced run loads it several times, one ``search.coldstart`` span
    each: a fresh ``from_index(mmap=True)`` plus the first query.
    """
    from repro import SemanticProximitySearch

    class_name, queries, k = request
    with harness_heap_frozen():
        for _ in range(COLDSTART_REPS if run.trace else 1):
            with run.tracer.span("from_index[mmap]+query", "search"):
                engine = SemanticProximitySearch.from_index(
                    data.snapshot, data.dataset.graph, mmap=True
                )
                engine.query(class_name, queries[0], k=k)
    return engine


def check_rankings(run: Run, oracle, session, requests: list[inputs.Request]) -> None:
    """The tier's answers against the unsharded in-process ``ProximityModel.rank``."""
    universe = oracle.universe()
    for (class_name, queries, k), served in zip(requests, session.rankings(requests)):
        if served is None or len(served) != len(queries):
            served = [None] * len(queries)
        for query, ranking in zip(queries, served):
            expected = oracle.model(class_name).rank(query, universe=universe, k=k)
            run.check(
                ranking is not None and bits(ranking) == bits(expected),
                f"ranking of {query!r} ({class_name}, k={k}) differs from the unsharded model",
            )


def run_workload(run: Run) -> dict[str, float]:
    """Run one workload; returns every metric of the requested mode by name."""
    w = run.workload
    spec = (inputs.SMOKE_DATASETS if run.smoke else inputs.DATASETS)[w.dataset]
    started = time.perf_counter()
    dataset = inputs.make_dataset(spec, run.seed)
    users = inputs.users_of(dataset)
    data = Data(dataset, users, write_inputs(run, dataset, spec, users))
    run.setup["inputs"] = time.perf_counter() - started

    layers: dict[str, float] = {}
    if w.kind == "offline":
        measured = run_offline(run, data, layers)
    else:
        measured = run_serving(run, data, layers)
    measured["setup_s"] = sum(run.setup.values())
    if run.trace:
        run.tracer.write(OUT / f"trace-{w.name}.jsonl")
        layers["trace.spans"] = len(run.tracer.spans)
        return layers
    return measured


def run_offline(run: Run, data: Data, layers: dict[str, float]) -> dict[str, float]:
    import ladder

    w = run.workload
    loop = Loop()
    passes = []
    started = time.perf_counter()
    # with --trace 1: one pass with the extra spans off, one with them on
    while not passes or (
        len(passes) < 2 if run.trace else time.perf_counter() - started < run.seconds
    ):
        traced = run.trace and bool(passes)
        passes.append(offline_pass(run, data.inputs_path, w.workers, traced))
        run.attempted += 1
        if not traced:
            loop.wall += passes[-1]["wall_s"] - passes[-1]["checks_s"]
            loop.ops.append((loop.wall, passes[-1]["build_s"]))
    run.setup["start"] = statistics.median(p["startup_s"] for p in passes)
    data.snapshot = passes[-1]["snapshot"]

    sample = list(itertools.islice(w.stream(data.users, run.seed, 20_000), ladder.OPS))
    measured = loop.summary()
    measured.update(
        peak_rss_mb=max(p["peak_rss_mb"] for p in passes),
        snapshot_mb=passes[-1]["snapshot_bytes"] / 1e6,
    )
    run.tracer.enabled = run.trace
    oracle = load_oracle(run, data, sample[0])
    if run.trace:
        plain, traced = passes
        run.tracer.adopt(traced["spans"], None)
        layers.update(ladder.offline_layers(run.tracer, traced))
        layers.update(ladder.serving_layers(run, data, oracle, sample))
        layers["op.count"] = len(passes)
        layers["op.p95_ms"] = layers["op.p99_ms"] = max(p["build_s"] for p in passes) * 1e3
        layers["trace.overhead_pct"] = (traced["build_s"] / plain["build_s"] - 1.0) * 100.0
    return measured


def run_serving(run: Run, data: Data, layers: dict[str, float]) -> dict[str, float]:
    import ladder

    w = run.workload
    build = offline_pass(run, data.inputs_path, 1, run.trace)
    run.setup["snapshot"] = build["wall_s"]
    data.snapshot = build["snapshot"]

    streams = [w.stream(data.users, run.seed, client) for client in range(CLIENTS)]
    if w.kind == "update":
        streams = [grouped(streams[0], UpdateSession.BATCHES)]
    starts = []
    session = None
    try:
        for _ in range(SETUP_REPS):
            if session is not None:
                session.close()
            session, seconds = start_session(run, data, streams)
            starts.append(seconds)
        run.setup["start"] = statistics.median(starts)
        clients = session.clients()
        plain, traced = measure(run, clients, streams[: len(clients)], f"{w.name} op")
        measured = plain.summary()
        measured["peak_rss_mb"] = procs.peak_rss_mb(session.pids())
        stats = session.stats() if w.kind == "http" else None
        if w.kind == "update":
            session.restore(next(streams[0]))

        sample = list(itertools.islice(w.stream(data.users, run.seed, 20_000), ladder.OPS))
        oracle = load_oracle(run, data, sample[0])
        measured["snapshot_mb"] = build["snapshot_bytes"] / 1e6
        # a batch workload checks one batch: the same 64 rankings
        checks = itertools.islice(
            w.stream(data.users, run.seed, 10_000), CHECKED // len(sample[0][1])
        )
        check_rankings(run, oracle, session, list(checks))
        if w.kind == "update":
            restored = session.engine
            run.check(
                restored.vectors.compile().content_digest()
                == oracle.vectors.compile().content_digest(),
                "counts differ from the original after the toggles returned the graph",
            )
            run.check(
                all(restored.index.num_instances(i) == oracle.index.num_instances(i)
                    for i in oracle.catalog.ids()),
                "instance totals differ from the original after the toggles",
            )
    finally:
        if session is not None:
            session.close()

    if run.trace:
        run.tracer.adopt(build["spans"], None)
        layers.update(ladder.offline_layers(run.tracer, build))
        layers.update(ladder.serving_layers(run, data, oracle, sample))
        if stats is not None:
            layers.update(ladder.frontend_stats(stats))
        ordered = sorted(traced.latencies)
        layers["op.count"] = len(ordered)
        layers["op.p95_ms"] = percentile(ordered, 0.95) * 1e3
        layers["op.p99_ms"] = percentile(ordered, 0.99) * 1e3
        layers["trace.overhead_pct"] = (
            traced.summary()["op_p50_ms"] / measured["op_p50_ms"] - 1.0
        ) * 100.0
    return measured
