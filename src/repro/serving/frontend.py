"""Long-lived query front-end: dynamic batching, caching, hot reload.

The router (:mod:`repro.serving.router`) answers *batches*; real
traffic arrives as concurrent *single* queries.  This module closes
that gap with three cooperating pieces:

- :class:`BatchCoalescer` — a query dispatches at once when its
  ``(class, k)`` group is idle and batches while the group is busy:
  arrivals behind an in-flight batch merge into one dynamic batch,
  flushed when it reaches ``max_batch`` queries, when a batch of the
  group completes, or when its oldest query has queued for
  ``max_delay_ms`` — whichever comes first.
  Batches dispatch straight into the engine's ``query_many``, so a
  coalesced ranking is *bit-identical* to the direct call: batching
  changes latency shape, never results.
- :class:`QueryFrontend` — validates each query before it can join a
  batch (one bad query must not fail its neighbours), fronts the
  dispatch with an LRU+TTL :class:`~repro.serving.cache.ResultCache`
  keyed on ``(snapshot digest, class, query, k, universe digest)``,
  and performs zero-downtime hot reloads: swap the serving tier onto
  the new snapshot first, then advance the digest and invalidate the
  cache atomically.  Because the digest is part of every key, a stale
  entry can never be *served* after a swap even in the instant before
  invalidation — the post-swap key simply differs.
- :class:`FrontendServer` — a stdlib ``ThreadingHTTPServer`` exposing
  ``/query``, ``/reload``, ``/stats`` and ``/health`` so the whole
  thing runs as ``repro serve --listen HOST:PORT``.

Knobs (flag > environment > default): ``REPRO_FRONTEND_MAX_BATCH``
(32), ``REPRO_FRONTEND_MAX_DELAY_MS`` (2.0),
``REPRO_FRONTEND_CACHE_SIZE`` (4096), ``REPRO_FRONTEND_CACHE_TTL``
(unset: entries never expire).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import (
    LearningError,
    QueryError,
    ReproError,
    ServingError,
    SnapshotError,
    StaleIndexError,
)
from repro.graph.typed_graph import NodeId
from repro.index.persist import snapshot_digest
from repro.index.vectors import decode_node_id, encode_node_id
from repro.learning.model import require_valid_k
from repro.serving.cache import ResultCache, result_key
from repro.serving.protocol import universe_digest

Ranking = list[tuple[NodeId, float]]
DispatchFn = Callable[[str, Sequence[NodeId], "int | None"], list[Ranking]]
#: queries coalesce only within one (class, k)
Group = tuple[str, "int | None"]


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return default if raw is None else int(raw)


def _env_float(name: str, default: float | None) -> float | None:
    raw = os.environ.get(name)
    return default if raw is None else float(raw)


@dataclass
class FrontendConfig:
    """Batching and caching knobs of one :class:`QueryFrontend`.

    ``max_delay_ms`` is the longest a query may queue behind an
    in-flight batch of its ``(class, k)`` group before its own batch
    flushes anyway; a query whose group is idle never waits.  ``0``:
    never queue — every query dispatches at once, as a batch of one.
    ``cache_ttl`` is in seconds; ``None`` means cached rankings only
    leave by LRU eviction or swap invalidation.
    """

    max_batch: int = 32
    max_delay_ms: float = 2.0
    cache_size: int = 4096
    cache_ttl: float | None = None
    dispatch_workers: int = 4
    request_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_ms < 0:
            raise ValueError(
                f"max_delay_ms must be >= 0, got {self.max_delay_ms}"
            )
        if self.dispatch_workers < 1:
            raise ValueError(
                f"dispatch_workers must be >= 1, got {self.dispatch_workers}"
            )

    @classmethod
    def from_env(
        cls,
        max_batch: int | None = None,
        max_delay_ms: float | None = None,
        cache_size: int | None = None,
        cache_ttl: float | None = None,
    ) -> "FrontendConfig":
        """Resolve knobs as flag > ``REPRO_FRONTEND_*`` env > default."""
        return cls(
            max_batch=(
                max_batch
                if max_batch is not None
                else _env_int("REPRO_FRONTEND_MAX_BATCH", 32)
            ),
            max_delay_ms=(
                max_delay_ms
                if max_delay_ms is not None
                else _env_float("REPRO_FRONTEND_MAX_DELAY_MS", 2.0)
            ),
            cache_size=(
                cache_size
                if cache_size is not None
                else _env_int("REPRO_FRONTEND_CACHE_SIZE", 4096)
            ),
            cache_ttl=(
                cache_ttl
                if cache_ttl is not None
                else _env_float("REPRO_FRONTEND_CACHE_TTL", None)
            ),
        )


class _PendingBatch:
    """One in-assembly batch: same class and k, flushed as a unit."""

    __slots__ = ("class_name", "k", "queries", "futures", "deadline")

    def __init__(self, class_name: str, k: int | None, deadline: float):
        self.class_name = class_name
        self.k = k
        self.queries: list[NodeId] = []
        self.futures: list[Future] = []
        self.deadline = deadline


class BatchCoalescer:
    """Merge concurrent single queries into dynamic ``query_many`` batches.

    Batch while busy, never while idle.  ``submit`` returns a
    :class:`~concurrent.futures.Future` for the query's ranking.  A
    query whose ``(class, k)`` group has no batch in flight dispatches
    at once, as a batch of one.  While a batch of its group is in
    flight, arrivals accumulate — arrival order kept — in the group's
    open batch, which flushes at whichever comes first: it holds
    ``max_batch`` queries, a batch of the group completes, or its first
    query has queued for ``max_delay`` seconds (a single background
    flusher thread sleeps until the earliest deadline; with
    ``max_delay`` 0 nothing ever queues).  Dispatch runs on a small
    thread pool so batches for different groups overlap; a dispatch
    error fails every future of its batch with the same exception.
    """

    def __init__(
        self,
        dispatch: DispatchFn,
        max_batch: int = 32,
        max_delay: float = 0.002,
        dispatch_workers: int = 4,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._dispatch = dispatch
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._clock = clock
        self._lock = threading.Lock()
        # the condition wraps _lock: holding either is holding both
        self._cv = threading.Condition(self._lock)
        self._groups: dict[Group, _PendingBatch] = {}  # guarded-by: _cv
        # batches dispatched and not yet completed, per group; a group
        # is idle exactly when it has no entry
        self._in_flight: dict[Group, int] = {}  # guarded-by: _cv
        self._closed = False  # guarded-by: _cv
        self._batches = 0  # guarded-by: _lock
        self._coalesced_batches = 0  # guarded-by: _lock
        self._submitted = 0  # guarded-by: _lock
        self._largest_batch = 0  # guarded-by: _lock
        self._pool = ThreadPoolExecutor(
            max_workers=dispatch_workers,
            thread_name_prefix="repro-frontend-dispatch",
        )
        self._flusher = threading.Thread(
            target=self._flush_loop, name="repro-frontend-flusher", daemon=True
        )
        self._flusher.start()

    def submit(self, class_name: str, query: NodeId, k: int | None) -> Future:
        """Queue one query; the future resolves to its ranking."""
        future: Future = Future()
        group = (class_name, k)
        with self._cv:
            if self._closed:
                raise ServingError("frontend coalescer is closed")
            batch = self._groups.get(group)
            if batch is None:
                batch = _PendingBatch(
                    class_name, k, self._clock() + self.max_delay
                )
                self._groups[group] = batch
            batch.queries.append(query)
            batch.futures.append(future)
            self._submitted += 1
            if (
                group not in self._in_flight
                or len(batch.queries) >= self.max_batch
                or not self.max_delay
            ):
                self._launch(group)
            elif len(batch.queries) == 1:
                # the flusher may be sleeping past this batch's deadline
                self._cv.notify()
        return future

    def _launch(self, group: Group) -> None:  # guarded-by-caller: _cv
        """Move the group's open batch in flight.

        The pool hand-off stays under the condition so that ``close``
        cannot shut the pool down between the pop and the submit.
        """
        batch = self._groups.pop(group)
        self._pool.submit(self._run_batch, batch)
        self._in_flight[group] = self._in_flight.get(group, 0) + 1

    def _flush_loop(self) -> None:
        with self._cv:
            while not self._closed:
                now = self._clock()
                due = [
                    group
                    for group, batch in self._groups.items()
                    if batch.deadline <= now
                ]
                for group in due:
                    self._launch(group)
                nearest = min(
                    (batch.deadline for batch in self._groups.values()),
                    default=None,
                )
                self._cv.wait(None if nearest is None else nearest - now)

    def _run_batch(self, batch: _PendingBatch) -> None:
        try:
            try:
                results = self._dispatch(
                    batch.class_name, batch.queries, batch.k
                )
            finally:
                # on every exit, and before any future resolves: a
                # caller that has seen its outcome finds the group
                # released, and a slot that leaked would wedge it
                self._release(batch)
            if len(results) != len(batch.futures):
                raise ServingError(
                    f"dispatch returned {len(results)} rankings for "
                    f"{len(batch.futures)} queries"
                )
        except (KeyboardInterrupt, SystemExit) as exc:
            # a shutdown signal on a dispatch thread is not a query
            # failure: fail the batch with a ServingError the callers
            # can classify, and let the signal keep unwinding the
            # thread instead of smuggling it into a Future
            failure = ServingError(
                f"dispatch interrupted by {type(exc).__name__}"
            )
            for future in batch.futures:
                future.set_exception(failure)
            raise
        except BaseException as exc:  # noqa: BLE001 — forwarded per-future
            for future in batch.futures:
                future.set_exception(exc)
        else:
            for future, ranking in zip(batch.futures, results):
                future.set_result(ranking)

    def _release(self, batch: _PendingBatch) -> None:
        """Count a finished dispatch; its group's open batch goes next."""
        group = (batch.class_name, batch.k)
        with self._cv:
            self._batches += 1
            if len(batch.queries) > 1:
                self._coalesced_batches += 1
            self._largest_batch = max(self._largest_batch, len(batch.queries))
            self._in_flight[group] -= 1
            if not self._in_flight[group]:
                del self._in_flight[group]
            if group in self._groups:
                self._launch(group)

    @property
    def stats(self) -> dict:
        with self._lock:
            return {
                "submitted": self._submitted,
                "batches": self._batches,
                "coalesced_batches": self._coalesced_batches,
                "largest_batch": self._largest_batch,
            }

    def close(self) -> None:
        """Flush the open batches, then stop the flusher and the pool."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            for group in list(self._groups):
                self._launch(group)
            self._cv.notify_all()
        self._flusher.join(timeout=5.0)
        self._pool.shutdown(wait=True)


class QueryFrontend:
    """Validating, caching, batching face of one engine.

    ``query`` is the serving entry point: it validates eagerly (so a
    bad query is rejected *before* it can join — and poison — a
    coalesced batch), consults the result cache under the current
    snapshot digest, and otherwise rides a dynamic batch through the
    engine's ``query_many`` — results are bit-identical to calling
    ``query_many`` directly.

    ``reload`` is the zero-downtime swap: the engine moves onto the
    new snapshot (in-flight batches drain on the old backend), and
    only then does the frontend advance its digest and drop the cache
    in one atomic step.  In-flight queries may resolve against either
    snapshot during the window — exactly the router's swap semantics —
    but a *cached* ranking is always served under the digest of the
    snapshot that computed it.
    """

    def __init__(
        self,
        engine,
        config: FrontendConfig | None = None,
        cache: ResultCache | None = None,
    ):
        self.engine = engine
        self.config = config or FrontendConfig.from_env()
        self.cache = (
            cache
            if cache is not None
            else ResultCache(self.config.cache_size, ttl=self.config.cache_ttl)
        )
        self._reload_lock = threading.Lock()
        # reloads serialise under the lock; query/stats/watch read the
        # digest racily on purpose — a stale read is indistinguishable
        # from having queried an instant before the swap
        self._digest = engine.serving_digest()  # guarded-by: _reload_lock (writes)
        self._coalescer = BatchCoalescer(
            self._dispatch,
            max_batch=self.config.max_batch,
            max_delay=self.config.max_delay_ms / 1000.0,
            dispatch_workers=self.config.dispatch_workers,
        )
        self._watch_stop = threading.Event()
        self._watcher: threading.Thread | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def _dispatch(
        self, class_name: str, queries: Sequence[NodeId], k: int | None
    ) -> list[Ranking]:
        return self.engine.query_many(class_name, list(queries), k=k)

    @property
    def digest(self) -> str:
        """Digest of the snapshot this frontend currently serves."""
        return self._digest

    def query(
        self, class_name: str, query: NodeId, k: int | None = 10
    ) -> Ranking:
        """One ranking — validated, cached, batch-coalesced.

        Raises exactly what the engine's own ``query`` raises
        (:class:`~repro.exceptions.QueryError` for unrankable nodes,
        :class:`~repro.exceptions.LearningError` for unknown classes,
        ...), and raises it *here*, before the query can join a batch;
        a batch that outlives ``request_timeout`` is a
        :class:`~repro.exceptions.ServingError`.
        """
        self.engine._require_fresh()
        self.engine.model(class_name)
        require_valid_k(k)
        self.engine._validate_query_node(query)
        digest = self._digest
        key = result_key(
            digest,
            class_name,
            query,
            k,
            universe_digest(self.engine.universe()),
        )
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        future = self._coalescer.submit(class_name, query, k)
        timeout = self.config.request_timeout
        try:
            result = future.result(timeout=timeout)
        except FutureTimeoutError:
            raise ServingError(f"query timed out after {timeout} s") from None
        # a reload may have landed while this batch was in flight; the
        # result then belongs to an unknowable snapshot generation, so
        # it must not be memoised under the pre-reload key
        if self._digest == digest:
            self.cache.put(key, result)
        return result

    # ------------------------------------------------------------------
    # hot reload
    # ------------------------------------------------------------------
    def reload(self, snapshot: str | Path | None = None) -> dict:
        """Swap serving onto a new snapshot with zero downtime.

        With ``snapshot`` the engine hot-loads that snapshot directory
        (:meth:`SemanticProximitySearch.reload_index`); without, it
        re-warms the serving tier over its current counts
        (:meth:`~SemanticProximitySearch.refresh_serving`).  Order is
        load-bearing: the router swap completes *first*, then the
        digest advances and the cache is invalidated atomically —
        queries keyed after this point can only hit post-swap entries.
        """
        with self._reload_lock:
            if snapshot is not None:
                self.engine.reload_index(snapshot)
            else:
                self.engine.refresh_serving()
            self._digest = self.engine.serving_digest()
            dropped = self.cache.invalidate()
        return {"digest": self._digest, "invalidated": dropped}

    def watch(
        self, snapshot_dir: str | Path, poll_interval: float = 1.0
    ) -> None:
        """Poll a snapshot directory and hot-reload when its digest moves.

        A half-written snapshot (publisher mid-save) fails digest
        verification and is skipped until a consistent manifest
        appears; the watcher never takes a broken snapshot live.
        """
        if self._watcher is not None:
            raise ServingError("frontend is already watching a snapshot dir")
        snapshot_dir = Path(snapshot_dir)

        def poll() -> None:
            while not self._watch_stop.wait(poll_interval):
                try:
                    on_disk = snapshot_digest(snapshot_dir)
                except (SnapshotError, OSError):
                    continue
                if on_disk != self._digest:
                    try:
                        self.reload(snapshot_dir)
                    except ReproError:
                        continue

        self._watcher = threading.Thread(
            target=poll, name="repro-frontend-watcher", daemon=True
        )
        self._watcher.start()

    # ------------------------------------------------------------------
    # observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "digest": self._digest,
            "classes": list(self.engine.classes),
            "cache": {
                "entries": len(self.cache),
                "max_size": self.cache.max_size,
                "ttl": self.cache.ttl,
                **self.cache.stats.to_dict(),
            },
            "batching": self._coalescer.stats,
        }

    def close(self) -> None:
        """Stop the watcher and the coalescer (the engine stays open)."""
        if self._closed:
            return
        self._closed = True
        self._watch_stop.set()
        if self._watcher is not None:
            self._watcher.join(timeout=5.0)
            self._watcher = None
        self._coalescer.close()

    def __enter__(self) -> "QueryFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# HTTP face
# ----------------------------------------------------------------------
def _error_status(exc: Exception) -> int:
    """Map a serving exception onto the HTTP status it deserves."""
    if isinstance(exc, QueryError):
        return 400  # the query itself is unrankable
    if isinstance(exc, (ServingError, StaleIndexError)):
        return 503  # the fleet / index, not the query
    if isinstance(exc, LearningError):
        return 404  # unknown class
    if isinstance(exc, (SnapshotError, ValueError)):
        return 400
    return 500


def parse_listen(listen: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` listen spec (port required)."""
    host, sep, port = listen.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"listen spec must be HOST:PORT, got {listen!r}"
        )
    return host, int(port)


#: largest POST body the HTTP face reads; longer ones are refused unread
MAX_BODY_BYTES = 1 << 20


def _parse_post_query(doc: dict) -> tuple[str, NodeId, int | None]:
    """``(class, query, k)`` of a ``POST /query`` body, or ``ValueError``."""
    if "class" not in doc or "query" not in doc:
        raise ValueError("body needs 'class' and 'query'")
    class_name, k = doc["class"], doc.get("k", 10)
    if not isinstance(class_name, str):
        raise ValueError(f"bad class: {class_name!r}")
    # bool is an int: without the first test `true` would serve as k=1
    if k is not None and (isinstance(k, bool) or not isinstance(k, int)):
        raise ValueError(f"bad k: {k!r}")
    query = decode_node_id(doc["query"])
    try:
        hash(query)
    except TypeError:  # a JSON object, at any depth, is no node id
        raise ValueError(
            f"bad query: {doc['query']!r} is not a node id"
        ) from None
    return class_name, query, k


class _FrontendHandler(BaseHTTPRequestHandler):
    """One request: ``/query``, ``/reload``, ``/stats``, ``/health``."""

    frontend: QueryFrontend  # class attribute, bound per server
    protocol_version = "HTTP/1.1"
    # headers and body share wfile's buffer and leave in the one flush
    # handle_one_request does after the method returns: as two
    # unbuffered writes the second waits out a keep-alive client's
    # delayed ACK (~40 ms).  Nagle off, so that a response larger than
    # the buffer, which does take several writes, never stalls either
    wbufsize = -1
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the server is library code; stderr is not its log

    def handle_expect_100(self) -> bool:
        proceed = super().handle_expect_100()
        # the client holds its body back until it reads this
        self.wfile.flush()
        return proceed

    def _send_json(self, status: int, doc: dict) -> None:
        payload = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _read_body(self, length: int) -> dict:
        if length == 0:
            return {}
        doc = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    def _handle_query(
        self, class_name: str, query: NodeId, k: int | None
    ) -> None:
        try:
            results = self.frontend.query(class_name, query, k=k)
        except Exception as exc:  # noqa: BLE001 — mapped to a status
            # Exception, not BaseException: KeyboardInterrupt/SystemExit
            # must unwind the handler thread, never become an HTTP 500
            self._send_json(_error_status(exc), {"error": str(exc)})
            return
        self._send_json(
            200,
            {
                "class": class_name,
                "query": encode_node_id(query),
                "k": k,
                "digest": self.frontend.digest,
                "results": [
                    [encode_node_id(node), score] for node, score in results
                ],
            },
        )

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        url = urlsplit(self.path)
        if url.path == "/health":
            self._send_json(
                200, {"status": "ok", "digest": self.frontend.digest}
            )
        elif url.path == "/stats":
            self._send_json(200, self.frontend.stats())
        elif url.path == "/query":
            params = parse_qs(url.query)
            class_name = (params.get("class") or [None])[0]
            query = (params.get("query") or [None])[0]
            if class_name is None or query is None:
                self._send_json(
                    400, {"error": "query needs class= and query= params"}
                )
                return
            raw_k = (params.get("k") or ["10"])[0]
            try:
                k = None if raw_k.lower() in ("none", "null") else int(raw_k)
            except ValueError:
                self._send_json(400, {"error": f"bad k: {raw_k!r}"})
                return
            self._handle_query(class_name, query, k)
        else:
            self._send_json(404, {"error": f"no route {url.path}"})

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        url = urlsplit(self.path)
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # refused before reading (a negative length would read to
            # EOF, a huge one allocate it), so the body is still on the
            # wire and the connection cannot carry another request
            self.close_connection = True
            if length < 0:
                self._send_json(
                    400, {"error": f"bad Content-Length: {raw_length!r}"}
                )
            else:
                self._send_json(
                    413,
                    {"error": f"request body over {MAX_BODY_BYTES} bytes"},
                )
            return
        try:
            doc = self._read_body(length)
        except ValueError as exc:
            self._send_json(400, {"error": f"bad request body: {exc}"})
            return
        if url.path == "/query":
            try:
                class_name, query, k = _parse_post_query(doc)
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._handle_query(class_name, query, k)
        elif url.path == "/reload":
            snapshot = doc.get("snapshot")
            if snapshot is not None and not isinstance(snapshot, str):
                self._send_json(400, {"error": f"bad snapshot: {snapshot!r}"})
                return
            try:
                outcome = self.frontend.reload(snapshot)
            except Exception as exc:  # noqa: BLE001 — mapped to a status
                # Exception, not BaseException — same shutdown-signal
                # taxonomy as _handle_query
                self._send_json(_error_status(exc), {"error": str(exc)})
                return
            self._send_json(200, outcome)
        else:
            self._send_json(404, {"error": f"no route {url.path}"})


class FrontendServer:
    """A :class:`QueryFrontend` behind a stdlib threading HTTP server.

    ``port=0`` binds an ephemeral port; read it back from
    :attr:`address`.  ``serve_forever`` blocks (the CLI path);
    ``start`` serves from a daemon thread (tests, embedding).
    """

    def __init__(
        self, frontend: QueryFrontend, host: str = "127.0.0.1", port: int = 0
    ):
        self.frontend = frontend
        handler = type(
            "_BoundFrontendHandler", (_FrontendHandler,), {"frontend": frontend}
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (blocking)."""
        self._httpd.serve_forever()

    def start(self) -> "FrontendServer":
        """Serve from a background daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-frontend-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop accepting requests and close the listening socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "FrontendServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
