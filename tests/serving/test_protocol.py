"""The shard wire protocol: framing, codecs, digests, remote errors.

The process serving tier's bit-identical claim rests on this layer:
JSON's shortest-repr float round trip must preserve score/weight bits
exactly, the error envelope must carry a worker-side ``ReproError``
across the boundary type- and message-intact, and the executor must
serve from content-addressed caches so any replica answers any
request identically.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.exceptions import QueryError, ServingError
from repro.index.parallel import build_index
from repro.learning.model import SortedUniverse, uniform_model
from repro.serving import ShardExecutor, partition_compiled, recv_frame, send_frame
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ScoreRequest,
    decode_rankings,
    encode_error,
    encode_rankings,
    raise_remote_error,
    score_group_on_shard,
    universe_digest,
    weights_digest,
)
from tests.conftest import random_typed_graph
from tests.serving.test_shards import synthetic_catalog


@pytest.fixture(scope="module")
def compiled_setup():
    graph = random_typed_graph(seed=7, num_users=40)
    vectors, _ = build_index(graph, synthetic_catalog())
    model = uniform_model(vectors).compile()
    universe = SortedUniverse(graph.nodes_of_type("user"))
    return vectors.compile(), model, universe


class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            doc = {"op": "ping", "floats": [0.1, 1 / 3, 2.0**-52], "nest": {"x": [1, None]}}
            send_frame(a, doc)
            assert recv_frame(b) == doc
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x10abc")  # announces 16, sends 3
            a.close()
            with pytest.raises(ServingError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_announcement_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ServingError, match="corrupt stream|limit"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            payload = b"[1,2,3]"
            a.sendall(len(payload).to_bytes(4, "big") + payload)
            with pytest.raises(ServingError, match="JSON object"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_float_bits_survive_the_wire(self):
        # shortest-repr JSON round trip is exact for float64 — the fact
        # the bit-identical-over-the-wire guarantee rests on
        rng = np.random.default_rng(3)
        values = list(rng.random(100)) + [2.0 / 3.0, 1e-300, 1.5e300]
        a, b = socket.socketpair()
        try:
            send_frame(a, {"v": values})
            echoed = recv_frame(b)["v"]
        finally:
            a.close()
            b.close()
        assert [f.hex() for f in echoed] == [f.hex() for f in values]


class TestDigests:
    def test_weights_digest_is_content_addressed(self):
        w = np.array([0.25, 0.5, 0.125])
        assert weights_digest(w) == weights_digest(w.copy())
        assert weights_digest(w) != weights_digest(np.array([0.25, 0.5, 0.126]))

    def test_universe_digest_cached_on_instance(self):
        u = SortedUniverse(["b", "a", "c"])
        first = universe_digest(u)
        assert universe_digest(u) is u._wire_digest
        assert first == universe_digest(SortedUniverse(["c", "a", "b"]))
        assert first != universe_digest(SortedUniverse(["a", "b"]))


class TestErrorEnvelope:
    def test_repro_error_round_trips_type_and_message(self):
        doc = encode_error(QueryError("node 'ghost' is not in the graph"))
        assert doc["ok"] is False
        with pytest.raises(QueryError, match="node 'ghost' is not in the graph"):
            raise_remote_error(doc["error"])

    def test_foreign_exception_degrades_to_serving_error(self):
        doc = encode_error(ZeroDivisionError("boom"))
        with pytest.raises(ServingError, match="ZeroDivisionError: boom"):
            raise_remote_error(doc["error"])

    def test_unknown_type_name_degrades_to_serving_error(self):
        with pytest.raises(ServingError, match="weird"):
            raise_remote_error({"type": "NoSuchError", "message": "weird"})

    def test_non_exception_type_name_cannot_be_smuggled(self):
        # a name that exists in repro.exceptions but is not a ReproError
        # subclass must not be instantiated off the wire
        with pytest.raises(ServingError):
            raise_remote_error({"type": "annotations", "message": "x"})


class TestRankingsCodec:
    def test_round_trip_with_tuple_node_ids(self):
        results = {3: [("u1", 0.5), (("pair", 2), 1 / 3)], 0: []}
        assert decode_rankings(encode_rankings(results)) == results


class TestScoreRequestWire:
    def test_universe_rides_only_when_asked(self):
        universe = SortedUniverse(["u1", "u2"])
        request = ScoreRequest(
            queries=[(0, "u1", 4)], weights=np.array([1.0, 2.0]), k=3,
            universe=universe,
        )
        lean = request.to_wire()
        assert "universe" not in lean
        assert lean["universe_digest"] == universe_digest(universe)
        assert lean["v"] == PROTOCOL_VERSION
        request.include_universe = True
        assert request.to_wire()["universe"] == ["u1", "u2"]

    def test_no_universe_means_null_digest(self):
        request = ScoreRequest(
            queries=[(0, "u1", 4)], weights=np.array([1.0]), k=None
        )
        doc = request.to_wire()
        assert doc["universe_digest"] is None
        assert doc["k"] is None


class TestShardExecutor:
    def _executor_and_inputs(self, compiled_setup, num_shards=3):
        compiled, model, universe = compiled_setup
        shards = partition_compiled(compiled, num_shards)
        shard = shards[1]
        pos = shard.lo  # first owned row
        node = compiled.nodes[pos]
        return ShardExecutor(shard), shard, model, universe, node, pos

    def test_hello_describes_the_shard(self, compiled_setup):
        executor, shard, *_ = self._executor_and_inputs(compiled_setup)
        hello = executor.hello()
        assert hello["ok"] and hello["shard"] == shard.shard_id
        assert (hello["lo"], hello["hi"]) == (shard.lo, shard.hi)
        assert hello["protocol"] == PROTOCOL_VERSION

    def test_cold_universe_yields_need_frame_then_serves(self, compiled_setup):
        executor, shard, model, universe, node, pos = self._executor_and_inputs(
            compiled_setup
        )
        request = ScoreRequest(
            queries=[(0, node, pos)], weights=model.weights, k=5,
            universe=universe,
        )
        first = executor.execute(request.to_wire())
        assert first == {
            "ok": False,
            "need": "universe",
            "universe_digest": universe_digest(universe),
        }
        request.include_universe = True
        warm = executor.execute(request.to_wire())
        assert warm["ok"]
        # steady state: digest-only requests now serve from the cache
        request.include_universe = False
        assert executor.execute(request.to_wire()) == warm

    def test_wire_results_match_direct_scoring_bit_for_bit(self, compiled_setup):
        executor, shard, model, universe, node, pos = self._executor_and_inputs(
            compiled_setup
        )
        node_dots = shard.node_dot_products(model.weights)
        pair_dots = shard.pair_dot_products(model.weights)
        direct = score_group_on_shard(
            shard, node_dots, pair_dots, [(0, node, pos)], universe, 7
        )
        request = ScoreRequest(
            queries=[(0, node, pos)], weights=model.weights, k=7,
            universe=universe, include_universe=True,
        )
        response = executor.execute(request.to_wire())
        assert decode_rankings(response["results"]) == direct

    def test_remote_query_error_envelope(self, compiled_setup):
        executor, shard, model, universe, node, pos = self._executor_and_inputs(
            compiled_setup
        )
        bad_pos = shard.hi  # first row the shard does NOT own
        request = ScoreRequest(
            queries=[(0, node, bad_pos)], weights=model.weights, k=5,
            universe=universe, include_universe=True,
        )
        response = executor.execute(request.to_wire())
        assert response["ok"] is False
        assert response["error"]["type"] == "QueryError"
        with pytest.raises(QueryError, match="outside shard"):
            raise_remote_error(response["error"])

    def test_version_mismatch_refused(self, compiled_setup):
        executor, *_ = self._executor_and_inputs(compiled_setup)
        response = executor.execute({"op": "score", "v": PROTOCOL_VERSION + 1})
        assert not response["ok"]
        assert "version mismatch" in response["error"]["message"]

    def test_unknown_op_refused(self, compiled_setup):
        executor, *_ = self._executor_and_inputs(compiled_setup)
        response = executor.execute({"op": "explode"})
        assert not response["ok"] and "unknown protocol op" in response["error"]["message"]

    def test_dot_products_cached_by_digest(self, compiled_setup):
        executor, _shard, model, *_ = self._executor_and_inputs(compiled_setup)
        first = executor.dot_products(model.weights)
        again = executor.dot_products(np.array(model.weights, copy=True))
        assert first[0] is again[0] and first[1] is again[1]
