"""Standalone shard-worker process: one node-range slice, one socket.

``python -m repro shard-worker`` (or ``python -m repro.serving.worker``)
turns one :class:`~repro.serving.shards.CompiledShard` into a serving
process:

1. *cold start* — the worker mmaps its slice straight out of the
   snapshot's arrays (:func:`~repro.index.persist.load_compiled_shard`):
   no dict replay, no transform callable, and co-hosted workers share
   the mapped pages;
2. *serve* — length-prefixed JSON frames
   (:mod:`~repro.serving.protocol`) over a Unix domain socket
   (``--socket``) or TCP (``--host``/``--port``), one handler thread
   per connection; scoring is numpy-bound and releases the GIL's cost
   to the supervisor by being a separate *process* in the first place;
3. *drain* — ``SIGTERM``/``SIGINT`` stop the accept loop, wait up to
   ``--drain-timeout`` seconds for in-flight requests to finish, then
   close connections and exit 0, so a router never loses an answered
   query to a routine restart or snapshot swap.

The worker is deliberately stateless between requests apart from
content-addressed caches (dot products per weights digest, universes
per digest), so any replica of a shard can answer any request — the
property the router's failover leans on.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import threading
import time
from pathlib import Path

from repro.exceptions import ReproError, ServingError
from repro.index.persist import load_compiled_shard
from repro.serving.protocol import ShardExecutor, recv_frame, send_frame

#: default seconds a terminating worker waits for in-flight requests
DEFAULT_DRAIN_TIMEOUT = 5.0


def build_worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro shard-worker",
        description=(
            "Serve one node-range shard of an index snapshot "
            "over a Unix or TCP socket (length-prefixed JSON frames)."
        ),
    )
    parser.add_argument(
        "--snapshot", required=True, help="snapshot directory"
    )
    parser.add_argument(
        "--shard", type=int, required=True, help="shard id in [0, num-shards)"
    )
    parser.add_argument(
        "--num-shards", type=int, required=True, help="total shard count"
    )
    parser.add_argument(
        "--socket", default=None, help="Unix domain socket path to listen on"
    )
    parser.add_argument(
        "--host", default=None, help="TCP host to bind (with --port)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port to bind (0 picks an ephemeral port, printed on the "
        "ready line)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        help="seconds to wait for in-flight requests on SIGTERM (default: "
        f"REPRO_SERVING_DRAIN_TIMEOUT or {DEFAULT_DRAIN_TIMEOUT})",
    )
    parser.add_argument(
        "--no-mmap",
        action="store_true",
        help="read and digest-verify the snapshot instead of mmapping it",
    )
    return parser


class ShardWorker:
    """The accept/serve/drain loop around one :class:`ShardExecutor`."""

    def __init__(
        self,
        executor: ShardExecutor,
        listener: socket.socket,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    ):
        self.executor = executor
        self.listener = listener
        self.drain_timeout = drain_timeout
        self._shutdown = threading.Event()
        self._lock = threading.Condition()
        self._inflight = 0  # guarded-by: _lock
        self._connections: set[socket.socket] = set()  # guarded-by: _lock

    # -- lifecycle -----------------------------------------------------
    def initiate_shutdown(self) -> None:
        """Stop accepting; safe from a signal handler or any thread."""
        self._shutdown.set()
        try:
            # shutdown() wakes a blocking accept() in another thread
            # (close() alone leaves it parked on the old fd)
            self.listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.listener.close()
        except OSError:
            pass

    def _drain(self) -> None:
        """Wait for in-flight requests, then drop idle connections."""
        deadline = time.monotonic() + self.drain_timeout
        with self._lock:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._lock.wait(remaining)
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    # -- connection handling -------------------------------------------
    def _handle_connection(self, conn: socket.socket) -> None:
        try:
            while not self._shutdown.is_set():
                try:
                    doc = recv_frame(conn)
                except ServingError:
                    break  # corrupt stream: drop the connection, not the worker
                if doc is None:
                    break
                if doc.get("op") == "shutdown":
                    send_frame(conn, {"ok": True, "draining": True})
                    self.initiate_shutdown()
                    break
                with self._lock:
                    self._inflight += 1
                try:
                    response = self.executor.execute(doc)
                finally:
                    with self._lock:
                        self._inflight -= 1
                        self._lock.notify_all()
                send_frame(conn, response)
        except OSError:
            pass  # peer vanished; the router handles its side
        finally:
            with self._lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def serve_forever(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _addr = self.listener.accept()
            except OSError:
                break  # listener closed by initiate_shutdown
            with self._lock:
                if self._shutdown.is_set():
                    conn.close()
                    break
                self._connections.add(conn)
            thread = threading.Thread(
                target=self._handle_connection,
                args=(conn,),
                name="repro-shard-conn",
                daemon=True,
            )
            thread.start()
        self._drain()


def _bind_listener(args: argparse.Namespace) -> tuple[socket.socket, str]:
    """The listening socket plus a printable endpoint description."""
    if (args.socket is None) == (args.host is None and args.port is None):
        raise ServingError(
            "exactly one transport required: --socket PATH (Unix) or "
            "--host/--port (TCP)"
        )
    if args.socket is not None:
        path = Path(args.socket)
        try:
            path.unlink()  # a stale socket file from a killed predecessor
        except FileNotFoundError:
            pass
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(path))
        listener.listen(64)
        return listener, f"unix:{path}"
    host = args.host or "127.0.0.1"
    port = args.port if args.port is not None else 0
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(64)
    bound_host, bound_port = listener.getsockname()
    return listener, f"tcp:{bound_host}:{bound_port}"


def main(argv: list[str] | None = None) -> int:
    """Worker entry point; blocks until SIGTERM/SIGINT, returns 0."""
    args = build_worker_parser().parse_args(argv)
    drain_timeout = args.drain_timeout
    if drain_timeout is None:
        drain_timeout = float(
            os.environ.get("REPRO_SERVING_DRAIN_TIMEOUT", DEFAULT_DRAIN_TIMEOUT)
        )
    try:
        shard = load_compiled_shard(
            args.snapshot, args.shard, args.num_shards, mmap=not args.no_mmap
        )
        listener, endpoint = _bind_listener(args)
    except (ReproError, OSError, ValueError) as exc:
        print(f"[shard-worker] cannot start: {exc}", file=sys.stderr)
        return 1
    worker = ShardWorker(
        ShardExecutor(shard), listener, drain_timeout=drain_timeout
    )
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: worker.initiate_shutdown())
    # machine-parseable ready line: supervisors on the same host race
    # the socket file instead, but TCP callers need the bound port
    print(
        json.dumps(
            {
                "ready": True,
                "shard": args.shard,
                "num_shards": args.num_shards,
                "endpoint": endpoint,
                "pid": os.getpid(),
                "owned_rows": shard.num_owned,
            },
            separators=(",", ":"),
        ),
        flush=True,
    )
    worker.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
