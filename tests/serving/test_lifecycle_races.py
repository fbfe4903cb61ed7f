"""Serving-tier lifecycle races: drain-on-close, swap-under-load,
sibling-error ordering, and failover against live-but-wrong workers.

Each test here is a regression pin for a specific teardown/failover
race:

- ``close()``/``swap()`` must wait for in-flight batches before the
  old backend is closed — otherwise a concurrent ``rank_many`` scores
  against freed shards / dead worker sockets;
- ``_rank_on`` must wait for *every* sibling shard group before
  surfacing an error — raising early releases the backend while
  stragglers still score on it;
- a live worker answering the *wrong* handshake (rogue process or
  stale spawn parked on the socket) must be killed so failover can
  respawn a correct one, instead of being retried until the request
  deadline burns;
- a worker restarting between the two legs of the need-universe
  re-send dance is a retriable transport failure, not a protocol
  error — and a replica killed after the universe was cached must
  fail over bit-identically.
"""

from __future__ import annotations

import json
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
)
from repro.serving.backend import _TransportFailure, _WorkerHandle
from repro.serving.protocol import (
    ScoreRequest,
    recv_frame,
    send_frame,
    universe_digest,
)
from tests.conftest import random_typed_graph
from tests.serving.test_shards import synthetic_catalog


@pytest.fixture(scope="module")
def corpus():
    graph = random_typed_graph(seed=13, num_users=30)
    catalog = synthetic_catalog()
    vectors, _ = build_vectors(graph, catalog)
    model = uniform_model(vectors).compile()
    universe = SortedUniverse(graph.nodes_of_type("user"))
    return vectors.compile(), model, universe


@pytest.fixture(scope="module")
def served(tmp_path_factory, corpus):
    compiled, _model, _universe = corpus
    graph = random_typed_graph(seed=13, num_users=30)
    catalog = synthetic_catalog()
    vectors, _ = build_vectors(graph, catalog)
    snapshot = tmp_path_factory.mktemp("races") / "snapshot"
    save_index(snapshot, vectors, catalog, graph=graph)
    return snapshot


class _SlowBackend(InProcessBackend):
    """In-process backend whose scoring dawdles and logs the teardown race."""

    def __init__(self, sharded, delay: float = 0.25):
        super().__init__(sharded)
        self.delay = delay
        self.entered = threading.Event()
        self.close_started = threading.Event()
        self.scored_after_close = False

    def score_group(self, model, shard_id, group, universe, k):
        self.entered.set()
        time.sleep(self.delay)
        if self.close_started.is_set():
            self.scored_after_close = True
        return super().score_group(model, shard_id, group, universe, k)

    def close(self):
        self.close_started.set()
        super().close()


class _SplitBackend(InProcessBackend):
    """Shard 0 explodes instantly; every other shard scores slowly."""

    def __init__(self, sharded, delay: float = 0.25):
        super().__init__(sharded)
        self.delay = delay
        self.slow_done = threading.Event()

    def score_group(self, model, shard_id, group, universe, k):
        if shard_id == 0:
            raise ServingError("shard 0 exploded")
        time.sleep(self.delay)
        self.slow_done.set()
        return super().score_group(model, shard_id, group, universe, k)


def _rank_in_thread(router, model, queries, universe, k):
    out: list = []
    errors: list[BaseException] = []

    def run() -> None:
        try:
            out.append(router.rank_many(model, queries, universe=universe, k=k))
        except BaseException as exc:  # noqa: BLE001 — surfaced by caller
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, out, errors


class TestDrainOnTeardown:
    def test_close_waits_for_inflight_batches(self, corpus):
        # regression: close() only waited on the dispatch pool, so a
        # batch scoring on the *calling* thread (single shard group —
        # the pool is not involved) raced backend.close()
        compiled, model, universe = corpus
        with QueryRouter(
            InProcessBackend(ShardedVectors.partition(compiled, 1)), workers=2
        ) as flat:
            expected = flat.rank_many(
                model, list(universe), universe=universe, k=5
            )
        backend = _SlowBackend(ShardedVectors.partition(compiled, 1))
        router = QueryRouter(backend, workers=2)
        thread, out, errors = _rank_in_thread(
            router, model, list(universe), universe, 5
        )
        assert backend.entered.wait(timeout=5)
        router.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert not errors, errors
        assert not backend.scored_after_close, (
            "backend.close() ran while a batch was still scoring"
        )
        assert out == [expected]  # the straddling batch lost nothing

    def test_close_rejects_new_batches_while_draining(self, corpus):
        compiled, model, universe = corpus
        backend = _SlowBackend(ShardedVectors.partition(compiled, 2))
        router = QueryRouter(backend, workers=2)
        thread, _out, errors = _rank_in_thread(
            router, model, list(universe), universe, 3
        )
        assert backend.entered.wait(timeout=5)
        router.close()
        with pytest.raises(ServingError, match="closed"):
            router.rank_many(model, list(universe), universe=universe, k=3)
        thread.join(timeout=10)
        assert not errors, errors

    def test_swap_waits_for_inflight_batches(self, corpus):
        compiled, model, universe = corpus
        old = _SlowBackend(ShardedVectors.partition(compiled, 2))
        router = QueryRouter(old, workers=2)
        try:
            thread, out, errors = _rank_in_thread(
                router, model, list(universe), universe, 5
            )
            assert old.entered.wait(timeout=5)
            router.swap(InProcessBackend(ShardedVectors.partition(compiled, 3)))
            thread.join(timeout=10)
            assert not errors, errors
            assert not old.scored_after_close, (
                "old backend closed under an in-flight batch during swap"
            )
            # and the swapped-in backend serves bit-identically
            assert router.rank_many(
                model, list(universe), universe=universe, k=5
            ) == out[0]
        finally:
            router.close()

    def test_error_waits_for_sibling_shard_groups(self, corpus):
        # regression: _rank_on raised the first shard error while
        # sibling groups were still scoring, releasing the backend
        # under them
        compiled, model, universe = corpus
        backend = _SplitBackend(ShardedVectors.partition(compiled, 2))
        with QueryRouter(backend, workers=2) as router:
            # position order puts shard 0 (the fast failure) first
            queries = list(compiled.nodes)
            with pytest.raises(ServingError, match="shard 0 exploded"):
                router.rank_many(model, queries, universe=universe, k=3)
            assert backend.slow_done.is_set(), (
                "rank_many raised while a sibling group was still scoring"
            )


def _spawn_shard_worker(snapshot: Path, socket_path: Path, shard: int):
    env_root = Path(__file__).resolve().parents[2] / "src"
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "shard-worker",
            "--snapshot", str(snapshot),
            "--shard", str(shard),
            "--num-shards", "2",
            "--socket", str(socket_path),
        ],
        env={"PYTHONPATH": str(env_root), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        text=True,
    )


class TestFailoverRaces:
    def test_rogue_worker_on_socket_is_killed_and_replaced(
        self, corpus, served
    ):
        # regression: a live worker answering the wrong handshake was
        # retried (it is alive, so failover never respawned it) until
        # the request deadline burned to ServingError
        compiled, model, universe, snapshot = (*corpus, served)
        backend = SubprocessBackend(snapshot, 2, replicas=1, deadline=15.0)
        backend.start()
        rogue = None
        try:
            group = [(0, compiled.nodes[0], 0)]
            expected = backend.score_group(model, 0, group, universe, 3)
            victim = backend._workers[0][0]
            victim.kill()
            victim.socket_path.unlink(missing_ok=True)
            # park a live worker serving the WRONG shard on the socket
            rogue = _spawn_shard_worker(snapshot, victim.socket_path, shard=1)
            assert json.loads(rogue.stdout.readline())["ready"]
            victim.proc = rogue
            start = time.monotonic()
            assert backend.score_group(model, 0, group, universe, 3) == expected
            assert time.monotonic() - start < backend.deadline, (
                "recovery burned the whole request deadline"
            )
            assert rogue.poll() is not None, "rogue worker was left alive"
        finally:
            if rogue is not None and rogue.poll() is None:
                rogue.kill()
                rogue.wait()
            backend.close()

    def test_repeated_universe_miss_is_retriable(self, corpus, served):
        # regression: a worker restarting between the two legs of the
        # need-universe dance surfaced as a protocol violation instead
        # of a retriable transport failure
        compiled, model, universe = corpus
        backend = SubprocessBackend(served, 2, replicas=1)
        handle = _WorkerHandle(0, 0, Path("/nonexistent.sock"))
        ours, theirs = socket.socketpair()
        handle.conn = ours
        digest = universe_digest(universe)
        handle.known_universes.add(digest)  # stale bookkeeping
        frames: list[dict] = []

        def stubborn_worker() -> None:
            for _ in range(2):
                frames.append(recv_frame(theirs))
                send_frame(
                    theirs,
                    {"ok": False, "need": "universe", "universe_digest": digest},
                )

        thread = threading.Thread(target=stubborn_worker, daemon=True)
        thread.start()
        request = ScoreRequest(
            queries=[(0, compiled.nodes[0], 0)],
            weights=model.weights,
            k=3,
            universe=universe,
        )
        try:
            with pytest.raises(_TransportFailure, match="cache miss persisted"):
                backend._score_on_worker(
                    handle, request, deadline=time.monotonic() + 5.0
                )
            thread.join(timeout=5)
            # the dance itself: digest-only first, inline on the retry
            assert "universe" not in frames[0]
            assert frames[1]["universe"]
            # and the failure resets the bookkeeping for the next replica
            assert digest not in handle.known_universes
            assert handle.conn is None
        finally:
            theirs.close()
            if handle.conn is not None:
                handle.conn.close()

    def test_kill_replica_after_universe_cached_stays_bit_identical(
        self, corpus, served
    ):
        # the batch's universe is cached on every primary replica (the
        # steady state sends only its digest); killing primaries then
        # forces failover onto replicas that must replay the inline
        # re-send dance — results may not change by a bit
        compiled, model, universe = corpus
        queries = list(universe)
        with QueryRouter(
            InProcessBackend(ShardedVectors.partition(compiled, 2)), workers=2
        ) as flat:
            expected = flat.rank_many(model, queries, universe=universe, k=5)
        backend = SubprocessBackend(served, 2, replicas=2)
        with QueryRouter(backend, workers=2) as router:
            assert router.rank_many(
                model, queries, universe=universe, k=5
            ) == expected
            for shard in range(2):
                backend._workers[shard][0].kill()
            assert router.rank_many(
                model, queries, universe=universe, k=5
            ) == expected
