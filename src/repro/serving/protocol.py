"""The shard boundary: a serializable score request/response protocol.

PR 5's router drove :class:`~repro.serving.shards.CompiledShard` scoring
through in-process closures, which welded the serving tier to one
process.  This module extracts the shard-scoring contract into a wire
protocol so the *same* scoring code can be driven in-process (a plain
function call, no serialization) or across a process boundary (a
length-prefixed JSON frame over a Unix or TCP socket):

- :func:`score_group_on_shard` — the pure scoring function both
  transports execute: it checks the router and shard agree on the
  snapshot, then runs :func:`~repro.learning.model.rank_candidates`
  (the kernel the unsharded model runs too) on each query's slice, so
  rankings are bit-identical by construction, not by parallel
  maintenance of two code paths;
- :class:`ScoreRequest` — one shard's share of a query batch plus the
  model weights and (optionally) the candidate universe, with a
  JSON-safe codec (:func:`~repro.index.vectors.encode_node_id` handles
  arbitrary node ids; Python's shortest-repr float round trip keeps
  scores and weights bit-exact across the wire);
- :class:`ShardExecutor` — the worker-side request handler: caches
  per-weights dot products and per-digest universes so steady-state
  requests carry only the queries, and answers ``need``-frames when a
  cold replica is missing a cached universe (the router then re-sends
  it inline — failover never depends on warm caches);
- the frame codec (:func:`send_frame` / :func:`recv_frame`) — 4-byte
  big-endian length prefix, UTF-8 JSON body — and the remote-error
  envelope (:func:`encode_error` / :func:`raise_remote_error`) that
  carries any :class:`~repro.exceptions.ReproError` (``QueryError``
  included) across the boundary with its exact message.
"""

from __future__ import annotations

import hashlib
import json
import socket
import struct
from dataclasses import dataclass

import numpy as np

import repro.exceptions as _exceptions
from repro.exceptions import QueryError, ReproError, ServingError
from repro.graph.typed_graph import NodeId
from repro.index.vectors import decode_node_id, encode_node_id
from repro.learning.model import SortedUniverse, rank_candidates
from repro.serving.shards import CompiledShard

#: protocol revision carried in every hello frame; bumped on any wire
#: format change so a mixed-version fleet fails loudly at handshake
PROTOCOL_VERSION = 1

_FRAME_HEADER = struct.Struct(">I")
#: hard ceiling on one frame (universe payloads scale with the anchor
#: set; half a GiB is far past any plausible request and cheap insurance
#: against a corrupt length prefix allocating unbounded memory)
MAX_FRAME_BYTES = 1 << 29


# ----------------------------------------------------------------------
# framing: 4-byte big-endian length prefix + UTF-8 JSON body
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, doc: dict) -> None:
    """Serialize one protocol message onto a connected socket."""
    payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ServingError(
            f"protocol frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    sock.sendall(_FRAME_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n:
                return None
            raise ServingError(
                f"peer closed the connection mid-frame ({n - remaining} of "
                f"{n} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one protocol message; None when the peer closed cleanly."""
    header = _recv_exact(sock, _FRAME_HEADER.size)
    if header is None:
        return None
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ServingError(
            f"peer announced a {length}-byte frame (limit "
            f"{MAX_FRAME_BYTES}); corrupt stream or protocol mismatch"
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ServingError("peer closed the connection after a frame header")
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServingError(f"undecodable protocol frame: {exc}") from exc
    if not isinstance(doc, dict):
        raise ServingError(
            f"protocol frame must be a JSON object, got {type(doc).__name__}"
        )
    return doc


# ----------------------------------------------------------------------
# content digests: how request payloads become cacheable
# ----------------------------------------------------------------------
def weights_digest(weights: np.ndarray) -> str:
    """Content key of a model's weight vector (exact float64 bytes)."""
    data = np.ascontiguousarray(np.asarray(weights, dtype=np.float64))
    return hashlib.sha256(data.tobytes()).hexdigest()


def universe_digest(universe: SortedUniverse) -> str:
    """Content key of a candidate universe, cached on the instance."""
    cached = getattr(universe, "_wire_digest", None)
    if cached is None:
        doc = json.dumps(
            [encode_node_id(node) for node in universe],
            separators=(",", ":"),
        )
        cached = hashlib.sha256(doc.encode("utf-8")).hexdigest()
        universe._wire_digest = cached
    return cached


# ----------------------------------------------------------------------
# remote errors: any ReproError crosses the boundary message-intact
# ----------------------------------------------------------------------
def encode_error(exc: BaseException) -> dict:
    """The error half of a response frame."""
    kind = type(exc).__name__ if isinstance(exc, ReproError) else "ServingError"
    message = str(exc)
    if not isinstance(exc, ReproError):
        message = f"shard worker failed: {type(exc).__name__}: {exc}"
    return {"ok": False, "error": {"type": kind, "message": message}}


def raise_remote_error(error: dict) -> None:
    """Re-raise a worker-side error locally, same type and message.

    The type name is resolved against :mod:`repro.exceptions` so a
    remote ``QueryError`` is catchable exactly like a local one;
    unknown or non-library names degrade to :class:`ServingError`.
    """
    kind = _exceptions.__dict__.get(error.get("type", ""))
    if not (isinstance(kind, type) and issubclass(kind, ReproError)):
        kind = ServingError
    raise kind(error.get("message", "shard worker reported an error"))


# ----------------------------------------------------------------------
# rankings codec
# ----------------------------------------------------------------------
def encode_rankings(
    results: dict[int, list[tuple[NodeId, float]]]
) -> list[list]:
    """``{slot: ranking}`` as JSON rows (slot, [[node, score], ...])."""
    return [
        [slot, [[encode_node_id(node), score] for node, score in ranking]]
        for slot, ranking in sorted(results.items())
    ]


def decode_rankings(rows: list[list]) -> dict[int, list[tuple[NodeId, float]]]:
    """Inverse of :func:`encode_rankings`."""
    return {
        int(slot): [(decode_node_id(node), float(score)) for node, score in ranking]
        for slot, ranking in rows
    }


# ----------------------------------------------------------------------
# the score request
# ----------------------------------------------------------------------
@dataclass
class ScoreRequest:
    """One shard's share of a query batch, transport-ready.

    ``queries`` rows are ``(slot, node, global_pos)`` — the batch slot
    the ranking must return to, the query node id, and its row in the
    global anchor universe.  ``universe`` is the optional candidate
    filter; ``include_universe`` controls whether its node list rides
    along (first contact / cache-miss retry) or only its digest does
    (steady state).
    """

    queries: list[tuple[int, NodeId, int]]
    weights: np.ndarray
    k: int | None
    universe: SortedUniverse | None = None
    include_universe: bool = False

    def to_wire(self) -> dict:
        doc: dict = {
            "op": "score",
            "v": PROTOCOL_VERSION,
            "weights": [float(w) for w in np.asarray(self.weights, dtype=np.float64)],
            "weights_digest": weights_digest(self.weights),
            "k": self.k,
            "queries": [
                [slot, encode_node_id(node), pos]
                for slot, node, pos in self.queries
            ],
            "universe_digest": (
                None if self.universe is None else universe_digest(self.universe)
            ),
        }
        if self.universe is not None and self.include_universe:
            doc["universe"] = [encode_node_id(node) for node in self.universe]
        return doc


# ----------------------------------------------------------------------
# scoring: the one implementation both transports execute
# ----------------------------------------------------------------------
def score_group_on_shard(
    shard: CompiledShard,
    node_dots: np.ndarray,
    pair_dots: np.ndarray,
    queries: list[tuple[int, NodeId, int]],
    universe: SortedUniverse | None,
    k: int | None,
) -> dict[int, list[tuple[NodeId, float]]]:
    """Score one shard's query group; the shared backend entry point.

    Every query is checked against the shard's own node table first: a
    position outside the owned range, or one whose resident node is not
    the node the router sent, means the router and this shard disagree
    on the snapshot (e.g. a worker still serving a pre-swap snapshot) —
    that surfaces as :class:`~repro.exceptions.QueryError` with one
    message, raised by this same function on either side of the
    transport seam, instead of a silently wrong ranking.
    """
    results: dict[int, list[tuple[NodeId, float]]] = {}
    for slot, query, pos in queries:
        if not shard.owns(pos):
            raise QueryError(
                f"query node {query!r} routes to universe position {pos}, "
                f"outside shard {shard.shard_id}'s owned range "
                f"[{shard.lo}, {shard.hi}); the router and shard disagree "
                "on the snapshot"
            )
        row = shard.local_row(pos)
        resident = shard.nodes[row]
        if resident != query:
            raise QueryError(
                f"query node {query!r} does not occupy universe position "
                f"{pos} on shard {shard.shard_id} (resident node: "
                f"{resident!r}); the router and shard disagree on the "
                "snapshot"
            )
        results[slot] = rank_candidates(
            shard, node_dots, pair_dots, row, query, universe, k
        )
    return results


# ----------------------------------------------------------------------
# the worker-side request handler
# ----------------------------------------------------------------------
class ShardExecutor:
    """Executes protocol requests against one :class:`CompiledShard`.

    Holds the per-shard caches the router used to keep in closures:
    dot-product arrays per weights digest and decoded universes per
    content digest.  Thread-safe under CPython's GIL (cache writes are
    single dict stores; a racing duplicate computation is wasted work,
    never a wrong answer).
    """

    def __init__(self, shard: CompiledShard):
        self.shard = shard
        self._dots: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._universes: dict[str, SortedUniverse] = {}

    def dot_products(
        self, weights: np.ndarray, digest: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(node_dots, pair_dots) for a weight vector, cached by digest."""
        key = digest or weights_digest(weights)
        dots = self._dots.get(key)
        if dots is None:
            weights = np.asarray(weights, dtype=np.float64)
            dots = (
                self.shard.node_dot_products(weights),
                self.shard.pair_dot_products(weights),
            )
            self._dots[key] = dots
        return dots

    def _resolve_universe(self, doc: dict) -> SortedUniverse | None | dict:
        """The request's universe, a ``need`` frame, or None (unfiltered)."""
        digest = doc.get("universe_digest")
        if digest is None:
            return None
        cached = self._universes.get(digest)
        if cached is not None:
            return cached
        inline = doc.get("universe")
        if inline is None:
            # a cold (or failed-over-to) replica without this universe:
            # ask the router to re-send it inline rather than guessing
            return {"ok": False, "need": "universe", "universe_digest": digest}
        universe = SortedUniverse(decode_node_id(node) for node in inline)
        self._universes[digest] = universe
        return universe

    def hello(self) -> dict:
        shard = self.shard
        return {
            "ok": True,
            "role": "shard-worker",
            "protocol": PROTOCOL_VERSION,
            "shard": shard.shard_id,
            "lo": shard.lo,
            "hi": shard.hi,
            "nodes": shard.num_nodes,
            "pairs": shard.num_pairs,
        }

    def execute(self, doc: dict) -> dict:
        """Handle one wire-level request document; never raises."""
        try:
            op = doc.get("op")
            if op == "hello":
                return self.hello()
            if op == "ping":
                return {"ok": True}
            if op != "score":
                raise ServingError(f"unknown protocol op {op!r}")
            if doc.get("v") != PROTOCOL_VERSION:
                raise ServingError(
                    f"protocol version mismatch: request v{doc.get('v')!r}, "
                    f"worker v{PROTOCOL_VERSION}"
                )
            universe = self._resolve_universe(doc)
            if isinstance(universe, dict):  # need-frame
                return universe
            weights = np.asarray(doc["weights"], dtype=np.float64)
            node_dots, pair_dots = self.dot_products(
                weights, doc.get("weights_digest")
            )
            queries = [
                (int(slot), decode_node_id(node), int(pos))
                for slot, node, pos in doc["queries"]
            ]
            k = doc.get("k")
            results = score_group_on_shard(
                self.shard,
                node_dots,
                pair_dots,
                queries,
                universe,
                None if k is None else int(k),
            )
            return {"ok": True, "results": encode_rankings(results)}
        except (KeyboardInterrupt, SystemExit):
            # shutdown signals must stop the worker loop, not ride the
            # wire as an error frame the router would retry elsewhere
            raise
        except BaseException as exc:  # noqa: BLE001 — the envelope IS the handler
            return encode_error(exc)
