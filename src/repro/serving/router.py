"""Multi-worker query router over a sharded compiled snapshot.

The serving tier's fan-out/merge layer: :class:`ShardedVectors` holds
the K node-range shards of one compiled snapshot, and
:class:`QueryRouter` answers query batches against a
:class:`~repro.serving.backend.ShardBackend` —

1. *route*: each query belongs to exactly one shard (the one owning its
   universe position), because a node's candidate lists live with its
   row;
2. *fan out*: per-shard query groups are scored concurrently on a
   thread pool (``workers``) through the backend — a function call
   into this process (:class:`~repro.serving.backend.InProcessBackend`)
   or a protocol frame to a shard worker process
   (:class:`~repro.serving.backend.SubprocessBackend`); each group
   returns the queries' positively scored, in-universe top-k partial
   rankings;
3. *merge*: partial rankings return to batch order and are padded with
   zero-proximity universe members exactly like the single-process
   compiled path (:func:`~repro.learning.model.pad_with_universe`), so
   the merged output is bit-identical to the unsharded backend — for
   every transport.

:meth:`QueryRouter.swap` replaces the backend with zero downtime: the
new backend warms first, new batches move to it atomically, and the old
backend closes only after its in-flight batches drain — the serving
half of a live snapshot swap.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.exceptions import ServingError
from repro.graph.typed_graph import NodeId
from repro.index.compiled import CompiledVectors
from repro.learning.model import (
    ProximityModel,
    SortedUniverse,
    pad_with_universe,
    require_valid_k,
)
from repro.serving.backend import ShardBackend
from repro.serving.shards import CompiledShard, partition_compiled


class ShardedVectors:
    """K node-range shards over one compiled snapshot."""

    def __init__(self, shards: Sequence[CompiledShard], source: CompiledVectors):
        self.shards = list(shards)
        self.source = source
        # shard s owns global rows [bounds[s], bounds[s+1])
        self._bounds = np.asarray(
            [shard.lo for shard in self.shards] + [source.num_nodes],
            dtype=np.int64,
        )

    @classmethod
    def partition(
        cls, compiled: CompiledVectors, num_shards: int
    ) -> "ShardedVectors":
        return cls(partition_compiled(compiled, num_shards), compiled)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def position(self, node: NodeId) -> int | None:
        """Global universe row of a node (None if absent)."""
        return self.source.position(node)

    def shard_of(self, global_pos: int) -> CompiledShard:
        index = int(np.searchsorted(self._bounds, global_pos, side="right")) - 1
        return self.shards[index]

    def __repr__(self) -> str:
        return (
            f"<ShardedVectors: {self.num_shards} shards over "
            f"{self.source.num_nodes} nodes>"
        )


class QueryRouter:
    """Fan query batches out across shard workers and merge the results.

    ``backend`` is any :class:`ShardBackend`; the router starts it.
    ``workers`` bounds the router-side fan-out concurrency — threads
    here are IO/dispatch, the arithmetic runs wherever the backend puts
    it.
    """

    def __init__(self, backend: ShardBackend, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        backend.start()
        self.workers = workers
        # writes serialise under the lock; readers take a benign
        # point-in-time snapshot (a stale backend is indistinguishable
        # from having read one instant earlier)
        self._backend: ShardBackend | None = backend  # guarded-by: _cv (writes)
        self._executor: ThreadPoolExecutor | None = None  # guarded-by: _cv
        self._cv = threading.Condition()
        # in-flight batch count per backend: swap() drains the old
        # backend against this before closing it
        self._inflight: dict[ShardBackend, int] = {}  # guarded-by: _cv

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def backend(self) -> ShardBackend | None:
        return self._backend

    def close(self, drain_timeout: float = 30.0) -> None:
        """Shut the dispatch pool and the backend down (idempotent).

        Like :meth:`swap`, the backend's in-flight batches drain first
        (new batches are rejected the moment the backend detaches): a
        concurrent ``rank_many`` that already acquired the backend would
        otherwise race the teardown and hit closed worker sockets
        mid-request.  After ``drain_timeout`` seconds the stragglers are
        abandoned to race the close, exactly like a worker death.
        """
        with self._cv:
            backend, self._backend = self._backend, None
            if backend is not None:
                self._drain_locked(backend, drain_timeout)
            # the executor outlives the drain: in-flight batches may
            # still be fanning groups out on it right up to their
            # release; detach under the lock, shut down outside it
            # (workers release batches through `_cv` — waiting on them
            # while holding it would deadlock)
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        if backend is not None:
            backend.close()

    def __enter__(self) -> "QueryRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _pool(self) -> ThreadPoolExecutor:
        # lazy creation must hold the lock: two first batches arriving
        # together would otherwise each build a pool and leak one
        with self._cv:
            if self._backend is None:
                # a straggler past close()'s drain timeout: refuse to
                # resurrect a pool nobody would ever shut down
                raise ServingError("router is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-shard",
                )
            return self._executor

    # ------------------------------------------------------------------
    # zero-downtime backend swap
    # ------------------------------------------------------------------
    def swap(
        self,
        backend: ShardBackend,
        drain_timeout: float = 30.0,
    ) -> None:
        """Replace the backend without dropping a query.

        The new backend warms (``start()``) while the old one keeps
        serving; new batches switch over atomically; the old backend is
        closed once its in-flight batches drain (or ``drain_timeout``
        elapses — the stragglers then race the close, exactly like a
        worker death, which the process backend already survives).
        """
        backend.start()
        with self._cv:
            if self._backend is None:
                backend.close()
                raise ServingError("router is closed; cannot swap backends")
            old, self._backend = self._backend, backend
            self._drain_locked(old, drain_timeout)
        old.close()

    def _drain_locked(self, backend: ShardBackend, timeout: float) -> None:  # guarded-by-caller: _cv
        """Wait (``_cv`` held) until ``backend`` has no in-flight batches."""
        # repro-lint: ignore[hot-path-entropy] -- drain-deadline bookkeeping; the clock bounds a wait and never reaches a score or ranking
        deadline = time.monotonic() + timeout
        while self._inflight.get(backend, 0) > 0:
            # repro-lint: ignore[hot-path-entropy] -- same drain deadline; remaining time only parameterises _cv.wait
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._cv.wait(remaining)

    def _acquire(self) -> ShardBackend:
        with self._cv:
            backend = self._backend
            if backend is None:
                raise ServingError("router is closed")
            self._inflight[backend] = self._inflight.get(backend, 0) + 1
            return backend

    def _release(self, backend: ShardBackend) -> None:
        with self._cv:
            count = self._inflight.get(backend, 0) - 1
            if count <= 0:
                self._inflight.pop(backend, None)
            else:
                self._inflight[backend] = count
            self._cv.notify_all()

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def rank(
        self,
        model: ProximityModel,
        query: NodeId,
        universe: Iterable[NodeId] | None = None,
        k: int | None = None,
    ) -> list[tuple[NodeId, float]]:
        """Rank one query through the sharded tier."""
        return self.rank_many(model, [query], universe=universe, k=k)[0]

    def rank_many(
        self,
        model: ProximityModel,
        queries: Sequence[NodeId],
        universe: Iterable[NodeId] | None = None,
        k: int | None = None,
    ) -> list[list[tuple[NodeId, float]]]:
        """One ranking per query, bit-identical to the unsharded path."""
        require_valid_k(k)
        if universe is not None and not isinstance(universe, SortedUniverse):
            universe = SortedUniverse(universe)
        backend = self._acquire()
        try:
            return self._rank_on(backend, model, list(queries), universe, k)
        finally:
            self._release(backend)

    def _rank_on(
        self,
        backend: ShardBackend,
        model: ProximityModel,
        queries: list[NodeId],
        universe: SortedUniverse | None,
        k: int | None,
    ) -> list[list[tuple[NodeId, float]]]:
        # route: group batch slots by owning shard; absent nodes score
        # as an empty candidate set, exactly like the unsharded path
        groups: dict[int, list[tuple[int, NodeId, int]]] = {}
        empty: list[tuple[int, NodeId]] = []
        for slot, query in enumerate(queries):
            pos = backend.position(query)
            if pos is None:
                empty.append((slot, query))
            else:
                shard_id = backend.shard_id_of(pos)
                groups.setdefault(shard_id, []).append((slot, query, pos))

        results: list[list[tuple[NodeId, float]] | None] = [None] * len(queries)

        def score_group(shard_id: int) -> None:
            group = groups[shard_id]
            for slot, ranking in backend.score_group(
                model, shard_id, group, universe, k
            ).items():
                results[slot] = ranking

        if self.workers > 1 and len(groups) > 1:
            pool = self._pool()
            futures = [pool.submit(score_group, shard_id) for shard_id in groups]
            # wait for EVERY sibling before surfacing an error: raising
            # on the first failure would release the backend while
            # straggler groups still score on it, letting a concurrent
            # swap()/close() tear the backend down under them
            first_error: BaseException | None = None
            for future in futures:
                try:
                    future.result()
                except BaseException as exc:  # noqa: BLE001 — re-raised below
                    if first_error is None:
                        first_error = exc
            if first_error is not None:
                raise first_error
        else:
            for shard_id in groups:
                score_group(shard_id)

        for slot, query in empty:
            if k is not None and k <= 0:
                results[slot] = []
            elif universe is None:
                results[slot] = []
            else:
                results[slot] = pad_with_universe([], query, universe, k)
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:
        return f"<QueryRouter: {self._backend!r}, {self.workers} workers>"
