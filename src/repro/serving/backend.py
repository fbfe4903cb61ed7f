"""Shard backends: how the router reaches a shard's scoring.

:class:`~repro.serving.router.QueryRouter` routes and merges; *where*
each shard's arithmetic runs is this module's seam:

- :class:`InProcessBackend` — the PR-5 behaviour: every shard is a
  :class:`~repro.serving.shards.CompiledShard` in this process and a
  score call is a plain function call into
  :func:`~repro.serving.protocol.score_group_on_shard`;
- :class:`SubprocessBackend` — a supervisor over standalone shard
  worker processes (:mod:`repro.serving.worker`): it spawns
  ``num_shards x replicas`` workers that mmap their slice from the
  snapshot's compiled arrays, speaks the
  :mod:`~repro.serving.protocol` frames to them over Unix sockets,
  fails a shard's request over to the next replica when a worker dies
  (restarting the dead one in the background), and keeps retrying
  until the request deadline — a batch never loses queries to a
  single worker death.

Both backends execute the same scoring function on the same sliced
arrays, so the router's merged rankings are bit-identical across them
— the property every serving test pins.

Environment knobs (all overridable per-backend in the constructor):

- ``REPRO_SERVING_REPLICAS`` — workers per shard (default 1);
- ``REPRO_SERVING_DEADLINE`` — seconds a shard request may retry
  across replicas/restarts before :class:`ServingError` (default 15);
- ``REPRO_SERVING_DRAIN_TIMEOUT`` — seconds a closing backend waits
  for workers to drain after SIGTERM before killing them (default 5);
- ``REPRO_SERVING_START_TIMEOUT`` — seconds to wait for a spawned
  worker's handshake (default 30).
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from abc import ABC, abstractmethod
from pathlib import Path

import numpy as np

from repro.exceptions import LearningError, ServingError
from repro.graph.typed_graph import NodeId
from repro.index.persist import load_compiled
from repro.learning.model import ProximityModel, SortedUniverse
from repro.serving.protocol import (
    ScoreRequest,
    decode_rankings,
    raise_remote_error,
    recv_frame,
    score_group_on_shard,
    send_frame,
    universe_digest,
)
from repro.serving.shards import shard_ranges


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


class ShardBackend(ABC):
    """Where shard scoring happens; the router is transport-blind.

    A backend owns the routing table (the global anchor universe and
    the shard bounds) and one ``score_group`` entry point; everything
    else — fan-out, merge, empty-slot padding — stays in the router
    and is therefore identical across transports.
    """

    #: shard s owns global rows [bounds[s], bounds[s+1])
    _bounds: np.ndarray

    @property
    @abstractmethod
    def num_shards(self) -> int: ...

    @property
    @abstractmethod
    def nodes(self) -> tuple[NodeId, ...]:
        """The global anchor universe, in position order."""

    @abstractmethod
    def position(self, node: NodeId) -> int | None:
        """Global universe row of a node (None if absent)."""

    @abstractmethod
    def score_group(
        self,
        model: ProximityModel,
        shard_id: int,
        group: list[tuple[int, NodeId, int]],
        universe: SortedUniverse | None,
        k: int | None,
    ) -> dict[int, list[tuple[NodeId, float]]]:
        """Rankings per batch slot for one shard's query group."""

    def shard_id_of(self, global_pos: int) -> int:
        return int(np.searchsorted(self._bounds, global_pos, side="right")) - 1

    def start(self) -> None:
        """Warm the backend until it can take traffic (idempotent)."""

    def close(self) -> None:
        """Release every resource the backend holds (idempotent)."""


class InProcessBackend(ShardBackend):
    """Shards live in this process; scoring is a function call."""

    def __init__(self, sharded) -> None:
        self.sharded = sharded  # ShardedVectors
        self._bounds = sharded._bounds
        # per-model per-shard (node_dots, pair_dots); weak keys so a
        # replaced model's entry dies with it instead of lingering (or,
        # worse, being served to a new model that recycled its id)
        self._dots: "weakref.WeakKeyDictionary[ProximityModel, list[tuple[np.ndarray, np.ndarray]]]" = (
            weakref.WeakKeyDictionary()
        )

    @property
    def num_shards(self) -> int:
        return self.sharded.num_shards

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return self.sharded.source.nodes

    def position(self, node: NodeId) -> int | None:
        return self.sharded.position(node)

    def _model_dots(
        self, model: ProximityModel
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        if model.compiled is not self.sharded.source:
            raise LearningError(
                "model is not compiled against this router's snapshot; "
                "rebuild the router (or recompile the model) after the "
                "counts change"
            )
        dots = self._dots.get(model)
        if dots is None:
            dots = [
                (
                    shard.node_dot_products(model.weights),
                    shard.pair_dot_products(model.weights),
                )
                for shard in self.sharded.shards
            ]
            self._dots[model] = dots
        return dots

    def score_group(
        self,
        model: ProximityModel,
        shard_id: int,
        group: list[tuple[int, NodeId, int]],
        universe: SortedUniverse | None,
        k: int | None,
    ) -> dict[int, list[tuple[NodeId, float]]]:
        node_dots, pair_dots = self._model_dots(model)[shard_id]
        return score_group_on_shard(
            self.sharded.shards[shard_id], node_dots, pair_dots, group,
            universe, k,
        )

    def __repr__(self) -> str:
        return f"<InProcessBackend: {self.sharded!r}>"


class TransportFailure(Exception):
    """A worker could not be reached/answer; failover-eligible."""


class WorkerHandle:
    """One worker process of one shard: socket, connection, liveness."""

    def __init__(self, shard_id: int, replica: int, socket_path: Path):
        self.shard_id = shard_id
        self.replica = replica
        self.socket_path = socket_path
        # spawns serialise under the lock; liveness probes (`alive`,
        # `poll`, teardown) read the reference racily on purpose
        self.proc: subprocess.Popen | None = None  # guarded-by: lock (writes)
        self.conn: socket.socket | None = None  # guarded-by: lock
        # universes this worker *incarnation* has cached, so the router
        # can inline the payload proactively after a restart
        self.known_universes: set[str] = set()  # guarded-by: lock
        self.lock = threading.Lock()

    @property
    def name(self) -> str:
        return f"shard {self.shard_id} replica {self.replica}"

    def drop_connection(self) -> None:  # guarded-by-caller: lock
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def kill(self) -> None:
        """Forcibly end this worker incarnation (connection included)."""
        self.drop_connection()
        if self.alive():
            try:
                self.proc.kill()
            except OSError:
                pass
        if self.proc is not None:
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass


class SubprocessBackend(ShardBackend):
    """Supervise shard worker processes and speak the wire protocol.

    ``snapshot_path`` must hold a snapshot (the workers mmap their
    slice of its arrays).  ``replicas`` workers serve each shard;
    requests go to the first live replica and fail over in replica
    order, restarting dead workers as they are discovered, until
    ``deadline`` seconds have elapsed — only then does a shard request
    fail, with :class:`ServingError`.
    """

    def __init__(
        self,
        snapshot_path: str | Path,
        num_shards: int,
        replicas: int | None = None,
        deadline: float | None = None,
        drain_timeout: float | None = None,
        start_timeout: float | None = None,
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.snapshot_path = Path(snapshot_path)
        self._num_shards = num_shards
        self.replicas = (
            _env_int("REPRO_SERVING_REPLICAS", 1) if replicas is None else replicas
        )
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        self.deadline = (
            _env_float("REPRO_SERVING_DEADLINE", 15.0)
            if deadline is None
            else deadline
        )
        self.drain_timeout = (
            _env_float("REPRO_SERVING_DRAIN_TIMEOUT", 5.0)
            if drain_timeout is None
            else drain_timeout
        )
        self.start_timeout = (
            _env_float("REPRO_SERVING_START_TIMEOUT", 30.0)
            if start_timeout is None
            else start_timeout
        )
        self._workers: list[list[WorkerHandle]] = []
        self._socket_dir: Path | None = None
        self._nodes: tuple[NodeId, ...] | None = None
        self._pos: dict[NodeId, int] = {}
        self._started = False
        self._closed = False

    # -- routing table -------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        self.start()
        return self._nodes

    def position(self, node: NodeId) -> int | None:
        self.start()
        return self._pos.get(node)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self._closed:
            raise ServingError("backend already closed; build a new one")
        if self._started:
            return
        # the supervisor's routing table is the same mmap'd snapshot the
        # workers slice, so router and fleet agree on positions by
        # construction
        compiled = load_compiled(self.snapshot_path)
        self._nodes = compiled.nodes
        self._pos = {node: i for i, node in enumerate(compiled.nodes)}
        self._bounds = np.asarray(
            [lo for lo, _hi in shard_ranges(compiled.num_nodes, self._num_shards)]
            + [compiled.num_nodes],
            dtype=np.int64,
        )
        self._socket_dir = Path(
            tempfile.mkdtemp(prefix="repro-serving-")
        )
        self._workers = [
            [
                WorkerHandle(
                    shard_id,
                    replica,
                    self._socket_dir / f"shard{shard_id}-r{replica}.sock",
                )
                for replica in range(self.replicas)
            ]
            for shard_id in range(self._num_shards)
        ]
        try:
            for handles in self._workers:
                for handle in handles:
                    # the handles are unpublished until start() returns,
                    # but _spawn's discipline is caller-holds-lock —
                    # uncontended here, so hold it rather than carve an
                    # exception into the rule
                    with handle.lock:
                        self._spawn(handle)
            deadline = time.monotonic() + self.start_timeout
            for handles in self._workers:
                for handle in handles:
                    with handle.lock:
                        self._ensure_connected(handle, deadline)
        except BaseException:
            self._started = True  # so close() tears the fleet down
            self.close()
            raise
        self._started = True

    def _spawn(self, handle: WorkerHandle) -> None:  # guarded-by-caller: handle.lock
        handle.drop_connection()
        handle.known_universes.clear()
        try:
            handle.socket_path.unlink()
        except OSError:
            pass
        env = os.environ.copy()
        # guarantee the child resolves the same `repro` (and its deps)
        # as this process, however the parent was launched
        package_root = str(Path(__file__).resolve().parents[2])
        parts = [package_root] + [
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        handle.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serving.worker",
                "--snapshot", str(self.snapshot_path),
                "--shard", str(handle.shard_id),
                "--num-shards", str(self._num_shards),
                "--socket", str(handle.socket_path),
                "--drain-timeout", str(self.drain_timeout),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
        )

    def _ensure_connected(self, handle: WorkerHandle, deadline: float) -> None:  # guarded-by-caller: handle.lock
        """Connect + handshake (lock held); TransportFailure on give-up."""
        if handle.conn is not None:
            return
        if not handle.alive():
            self._spawn(handle)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportFailure(
                    f"{handle.name}: no worker became reachable in time"
                )
            if handle.proc is not None and handle.proc.poll() is not None:
                raise TransportFailure(
                    f"{handle.name}: worker exited with code "
                    f"{handle.proc.returncode} before serving"
                )
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            conn.settimeout(max(remaining, 0.01))
            try:
                conn.connect(str(handle.socket_path))
                send_frame(conn, {"op": "hello"})
                hello = recv_frame(conn)
            except (OSError, ServingError):
                conn.close()
                time.sleep(0.02)
                continue
            if (
                hello is None
                or not hello.get("ok")
                or hello.get("shard") != handle.shard_id
            ):
                conn.close()
                # the worker is live but wrong (serving another shard,
                # stale spawn, rogue process on the socket): left alone
                # the failover loop would retry it until the deadline
                # burns, because it only respawns dead workers — kill
                # this incarnation so the next attempt spawns a correct
                # replacement
                handle.kill()
                raise TransportFailure(
                    f"{handle.name}: bad handshake response {hello!r} "
                    "(worker killed for respawn)"
                )
            handle.conn = conn
            return

    def poll(self) -> dict[tuple[int, int], bool]:
        """Liveness per (shard, replica) — operator introspection."""
        return {
            (handle.shard_id, handle.replica): handle.alive()
            for handles in self._workers
            for handle in handles
        }

    def close(self) -> None:
        if self._closed or not self._started:
            self._closed = True
            return
        self._closed = True
        procs = []
        for handles in self._workers:
            for handle in handles:
                handle.drop_connection()
                if handle.alive():
                    try:
                        handle.proc.send_signal(signal.SIGTERM)
                    except OSError:
                        pass
                if handle.proc is not None:
                    procs.append(handle.proc)
        deadline = time.monotonic() + self.drain_timeout
        for proc in procs:
            try:
                proc.wait(timeout=max(deadline - time.monotonic(), 0.05))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._socket_dir is not None:
            shutil.rmtree(self._socket_dir, ignore_errors=True)

    # -- serving -------------------------------------------------------
    def _call(  # guarded-by-caller: handle.lock
        self, handle: WorkerHandle, doc: dict, deadline: float
    ) -> dict:
        """One request/response on a connected handle (lock held)."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TransportFailure(f"{handle.name}: request deadline elapsed")
        try:
            handle.conn.settimeout(remaining)
            send_frame(handle.conn, doc)
            response = recv_frame(handle.conn)
        except (OSError, ServingError) as exc:
            handle.drop_connection()
            raise TransportFailure(f"{handle.name}: {exc}") from exc
        if response is None:
            handle.drop_connection()
            raise TransportFailure(
                f"{handle.name}: worker closed the connection mid-request"
            )
        return response

    def _score_on_worker(
        self,
        handle: WorkerHandle,
        request: ScoreRequest,
        deadline: float,
    ) -> dict[int, list[tuple[NodeId, float]]]:
        digest = (
            None if request.universe is None else universe_digest(request.universe)
        )
        with handle.lock:
            self._ensure_connected(handle, deadline)
            request.include_universe = (
                digest is not None and digest not in handle.known_universes
            )
            response = self._call(handle, request.to_wire(), deadline)
            if response.get("need") == "universe":
                # cold replica (restart raced our bookkeeping): re-send
                # with the universe inline
                request.include_universe = True
                response = self._call(handle, request.to_wire(), deadline)
                if response.get("need") == "universe":
                    # the worker restarted again between the two calls:
                    # its caches are empty and this connection now talks
                    # to an incarnation our bookkeeping knows nothing
                    # about — retriable, not a protocol violation
                    handle.known_universes.discard(digest)
                    handle.drop_connection()
                    raise TransportFailure(
                        f"{handle.name}: universe cache miss persisted "
                        "after an inline re-send (worker restarted "
                        "mid-request)"
                    )
            if not response.get("ok"):
                error = response.get("error")
                if isinstance(error, dict):
                    raise_remote_error(error)  # deterministic; no failover
                raise TransportFailure(
                    f"{handle.name}: malformed response {response!r}"
                )
            if digest is not None:
                handle.known_universes.add(digest)
            return decode_rankings(response["results"])

    def score_group(
        self,
        model: ProximityModel,
        shard_id: int,
        group: list[tuple[int, NodeId, int]],
        universe: SortedUniverse | None,
        k: int | None,
    ) -> dict[int, list[tuple[NodeId, float]]]:
        self.start()
        request = ScoreRequest(
            queries=group, weights=model.weights, k=k, universe=universe
        )
        deadline = time.monotonic() + self.deadline
        failures: list[str] = []
        while True:
            for handle in self._workers[shard_id]:
                try:
                    return self._score_on_worker(handle, request, deadline)
                except TransportFailure as exc:
                    # replica is gone: respawn it in the background and
                    # fail the request over to the next one
                    failures.append(str(exc))
                    with handle.lock:
                        if not handle.alive():
                            self._spawn(handle)
            if time.monotonic() >= deadline:
                detail = "; ".join(failures[-2 * self.replicas :])
                raise ServingError(
                    f"shard {shard_id}: no replica answered within "
                    f"{self.deadline:.1f}s ({detail})"
                )
            time.sleep(0.02)

    def __repr__(self) -> str:
        return (
            f"<SubprocessBackend: {self._num_shards} shards x "
            f"{self.replicas} replicas over {self.snapshot_path}>"
        )
