"""Replica failover determinism and shard-worker process lifecycle.

Killing any single worker must lose no queries and change no bits:
workers are stateless apart from content-addressed caches, so the
replica that picks a request up computes exactly the bytes the dead
worker would have.  The worker process itself must start with a
machine-parseable ready line, drain in-flight work on SIGTERM, and
honour the protocol's ``shutdown`` op.
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exceptions import ServingError
from repro.index.persist import save_index
from repro.index.vectors import build_vectors
from repro.learning.model import SortedUniverse, uniform_model
from repro.serving import (
    InProcessBackend,
    QueryRouter,
    ShardedVectors,
    SubprocessBackend,
    recv_frame,
    send_frame,
)
from tests.conftest import random_typed_graph
from tests.serving.test_shards import synthetic_catalog

SHARD_COUNTS = (1, 2, 3, 5, 16)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    graph = random_typed_graph(seed=7, num_users=40)
    catalog = synthetic_catalog()
    vectors, _ = build_vectors(graph, catalog)
    model = uniform_model(vectors).compile()
    universe = SortedUniverse(graph.nodes_of_type("user"))
    snapshot = tmp_path_factory.mktemp("failover") / "snapshot"
    save_index(snapshot, vectors, catalog, graph=graph)
    return vectors.compile(), model, universe, snapshot


class TestFailoverDeterminism:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_killed_worker_changes_no_bits(self, served, num_shards):
        # satellite: kill one shard worker, serve the batch from the
        # replica, and the rankings are byte-identical to a healthy run
        compiled, model, universe, snapshot = served
        queries = list(universe)
        with QueryRouter(
            InProcessBackend(ShardedVectors.partition(compiled, num_shards)), workers=2
        ) as flat:
            healthy = {
                k: flat.rank_many(model, queries, universe=universe, k=k)
                for k in (1, 2, 3, 5, 16)
            }
        backend = SubprocessBackend(snapshot, num_shards, replicas=2)
        with QueryRouter(backend, workers=2) as router:
            # warm every worker, then murder one replica outright
            assert router.rank_many(model, queries, universe=universe, k=3)
            victim = backend._workers[num_shards // 2][0]
            victim.proc.kill()
            victim.proc.wait()
            for k, expected in healthy.items():
                assert router.rank_many(
                    model, queries, universe=universe, k=k
                ) == expected

    def test_kill_mid_batch_loses_no_queries(self, served):
        compiled, model, universe, snapshot = served
        queries = list(universe) * 5  # long enough to straddle the kill
        with QueryRouter(
            InProcessBackend(ShardedVectors.partition(compiled, 3)), workers=2
        ) as flat:
            healthy = flat.rank_many(model, queries, universe=universe, k=5)
        backend = SubprocessBackend(snapshot, 3, replicas=2)
        with QueryRouter(backend, workers=2) as router:
            assert router.rank_many(model, queries[:3], universe=universe, k=5)
            stop = threading.Event()

            def killer():
                # keep killing replica 0 of shard 1 while the batch runs
                while not stop.is_set():
                    victim = backend._workers[1][0]
                    if victim.proc is not None and victim.alive():
                        victim.proc.kill()
                    time.sleep(0.01)

            thread = threading.Thread(target=killer, daemon=True)
            thread.start()
            try:
                for _ in range(3):
                    assert router.rank_many(
                        model, queries, universe=universe, k=5
                    ) == healthy
            finally:
                stop.set()
                thread.join()

    def test_dead_worker_is_respawned(self, served):
        compiled, model, universe, snapshot = served
        backend = SubprocessBackend(snapshot, 2, replicas=2)
        with QueryRouter(backend, workers=1) as router:
            queries = list(universe)
            assert router.rank_many(model, queries, universe=universe, k=2)
            victim = backend._workers[0][0]
            victim.proc.kill()
            victim.proc.wait()
            assert router.rank_many(model, queries, universe=universe, k=2)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if all(backend.poll().values()):
                    break
                time.sleep(0.05)
            assert all(backend.poll().values())

    def test_unservable_shard_raises_within_deadline(self, served, tmp_path):
        compiled, model, universe, snapshot = served
        backend = SubprocessBackend(
            snapshot, 2, replicas=1, deadline=1.0, start_timeout=30.0
        )
        backend.start()
        try:
            queries = [(0, compiled.nodes[0], 0)]
            assert backend.score_group(model, 0, queries, universe, 3)
            victim = backend._workers[0][0]
            # respawns will bind into a directory that does not exist,
            # so every incarnation dies before serving
            victim.socket_path = tmp_path / "void" / "w.sock"
            victim.proc.kill()
            victim.proc.wait()
            victim.drop_connection()
            with pytest.raises(ServingError, match="no replica answered"):
                backend.score_group(model, 0, queries, universe, 3)
        finally:
            backend.close()


def _spawn_worker(snapshot: Path, socket_path: Path, *extra: str):
    env_root = Path(__file__).resolve().parents[2] / "src"
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "shard-worker",
            "--snapshot", str(snapshot),
            "--shard", "0",
            "--num-shards", "2",
            "--socket", str(socket_path),
            *extra,
        ],
        env={"PYTHONPATH": str(env_root), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        text=True,
    )


def _connect(socket_path: Path, timeout: float = 10.0) -> socket.socket:
    deadline = time.monotonic() + timeout
    while True:
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            conn.connect(str(socket_path))
            return conn
        except OSError:
            conn.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)


class TestWorkerProcess:
    def test_ready_line_and_sigterm_drain(self, served, tmp_path):
        *_rest, snapshot = served
        sock = tmp_path / "w.sock"
        proc = _spawn_worker(snapshot, sock)
        try:
            ready = json.loads(proc.stdout.readline())
            assert ready["ready"] and ready["shard"] == 0
            assert ready["endpoint"] == f"unix:{sock}"
            assert ready["pid"] == proc.pid
            conn = _connect(sock)
            send_frame(conn, {"op": "ping"})
            assert recv_frame(conn) == {"ok": True}
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
            conn.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_shutdown_op_drains_and_exits_zero(self, served, tmp_path):
        *_rest, snapshot = served
        sock = tmp_path / "w.sock"
        proc = _spawn_worker(snapshot, sock)
        try:
            proc.stdout.readline()
            conn = _connect(sock)
            send_frame(conn, {"op": "shutdown"})
            assert recv_frame(conn) == {"ok": True, "draining": True}
            assert proc.wait(timeout=10) == 0
            conn.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_hello_over_the_cli_entry(self, served, tmp_path):
        *_rest, snapshot = served
        sock = tmp_path / "w.sock"
        proc = _spawn_worker(snapshot, sock)
        try:
            proc.stdout.readline()
            conn = _connect(sock)
            send_frame(conn, {"op": "hello"})
            hello = recv_frame(conn)
            assert hello["ok"] and hello["role"] == "shard-worker"
            assert hello["shard"] == 0
            conn.close()
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)

    def test_corrupt_frame_drops_connection_not_worker(self, served, tmp_path):
        *_rest, snapshot = served
        sock = tmp_path / "w.sock"
        proc = _spawn_worker(snapshot, sock)
        try:
            proc.stdout.readline()
            bad = _connect(sock)
            bad.sendall(b"\xff\xff\xff\xffgarbage")
            bad.close()
            good = _connect(sock)
            send_frame(good, {"op": "ping"})
            assert recv_frame(good) == {"ok": True}
            good.close()
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)

    def test_bad_arguments_exit_nonzero(self, served, tmp_path):
        *_rest, snapshot = served
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "shard-worker",
                "--snapshot", str(snapshot),
                "--shard", "7",
                "--num-shards", "2",
                "--socket", str(tmp_path / "w.sock"),
            ],
            env={
                "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
                "PATH": "/usr/bin:/bin",
            },
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "cannot start" in proc.stderr

    def test_transport_flags_are_exclusive(self, served, tmp_path):
        *_rest, snapshot = served
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "shard-worker",
                "--snapshot", str(snapshot),
                "--shard", "0",
                "--num-shards", "2",
            ],
            env={
                "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
                "PATH": "/usr/bin:/bin",
            },
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "exactly one transport" in proc.stderr
