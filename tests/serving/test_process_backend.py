"""Process-worker serving parity: same bits as the in-process router.

The tentpole contract of the transport-abstracted shard boundary: for
every shard count, replica count and k, rankings served by supervised
worker processes over the wire protocol are byte-identical to the
in-process thread backend — including remote ``QueryError``s, which
must surface at the router with the exact message the shard raised.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SemanticProximitySearch
from repro.exceptions import QueryError, ServingError
from repro.index.persist import save_index
from repro.index.vectors import build_vectors
from repro.learning.model import ProximityModel, SortedUniverse, uniform_model
from repro.serving import (
    InProcessBackend,
    QueryRouter,
    ShardedVectors,
    SubprocessBackend,
)
from tests.conftest import random_typed_graph
from tests.serving.test_facade_sharded import toy_engine
from tests.serving.test_shards import synthetic_catalog

SHARD_COUNTS = (1, 2, 3, 5, 16)
K_VALUES = (None, 0, 1, 2, 3, 5, 16)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    graph = random_typed_graph(seed=7, num_users=40)
    catalog = synthetic_catalog()
    vectors, _ = build_vectors(graph, catalog)
    model = uniform_model(vectors).compile()
    universe = SortedUniverse(graph.nodes_of_type("user"))
    snapshot = tmp_path_factory.mktemp("process-backend") / "snapshot"
    save_index(snapshot, vectors, catalog, graph=graph)
    return vectors.compile(), model, universe, snapshot


class TestRouterParity:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_process_rankings_bit_identical(self, served, num_shards):
        compiled, model, universe, snapshot = served
        queries = list(universe)
        with QueryRouter(
            InProcessBackend(ShardedVectors.partition(compiled, num_shards)), workers=2
        ) as flat, QueryRouter(
            SubprocessBackend(snapshot, num_shards), workers=2
        ) as proc:
            for k in K_VALUES:
                assert proc.rank_many(
                    model, queries, universe=universe, k=k
                ) == flat.rank_many(model, queries, universe=universe, k=k)

    def test_parity_without_universe_filter(self, served):
        compiled, model, universe, snapshot = served
        queries = list(universe)
        with QueryRouter(
            InProcessBackend(ShardedVectors.partition(compiled, 3)), workers=2
        ) as flat, QueryRouter(SubprocessBackend(snapshot, 3), workers=2) as proc:
            for k in (None, 4):
                assert proc.rank_many(model, queries, k=k) == flat.rank_many(
                    model, queries, k=k
                )

    def test_second_model_weights_cached_separately(self, served):
        compiled, model, universe, snapshot = served
        rng = np.random.default_rng(5)
        other = ProximityModel(
            rng.random(compiled.catalog_size), model.vectors, name="other"
        ).compile()
        queries = list(universe)[:10]
        with QueryRouter(
            InProcessBackend(ShardedVectors.partition(compiled, 2)), workers=1
        ) as flat, QueryRouter(SubprocessBackend(snapshot, 2), workers=1) as proc:
            for m in (model, other, model):  # interleave: caches must not mix
                assert proc.rank_many(
                    m, queries, universe=universe, k=5
                ) == flat.rank_many(m, queries, universe=universe, k=5)

    @pytest.mark.parametrize("replicas", (2, 3))
    def test_replicas_serve_identically(self, served, replicas):
        compiled, model, universe, snapshot = served
        queries = list(universe)
        with QueryRouter(
            InProcessBackend(ShardedVectors.partition(compiled, 2)), workers=2
        ) as flat, QueryRouter(
            SubprocessBackend(snapshot, 2, replicas=replicas), workers=2
        ) as proc:
            assert proc.rank_many(
                model, queries, universe=universe, k=5
            ) == flat.rank_many(model, queries, universe=universe, k=5)


class TestRemoteQueryErrors:
    def _bad_groups(self, compiled, num_shards=3):
        """(group, shard_id) pairs that must raise QueryError on a shard."""
        sharded = ShardedVectors.partition(compiled, num_shards)
        shard = sharded.shards[1]
        off_range = [(0, compiled.nodes[shard.lo], shard.hi)]
        wrong_node = [(0, compiled.nodes[shard.lo], shard.lo + 1)]
        return [(off_range, 1), (wrong_node, 1)]

    def test_remote_query_error_matches_in_process_exactly(self, served):
        # satellite: a QueryError raised on a remote shard surfaces at
        # the router as the same type with the same message — never as
        # a transport failure, never triggering failover
        compiled, model, universe, snapshot = served
        in_proc = InProcessBackend(ShardedVectors.partition(compiled, 3))
        in_proc.start()
        sub = SubprocessBackend(snapshot, 3, replicas=2)
        sub.start()
        try:
            for group, shard_id in self._bad_groups(compiled):
                with pytest.raises(QueryError) as local:
                    in_proc.score_group(model, shard_id, group, universe, 5)
                with pytest.raises(QueryError) as remote:
                    sub.score_group(model, shard_id, group, universe, 5)
                assert str(remote.value) == str(local.value)
        finally:
            sub.close()
            in_proc.close()

    def test_remote_query_error_does_not_kill_the_worker(self, served):
        compiled, model, universe, snapshot = served
        sub = SubprocessBackend(snapshot, 3)
        sub.start()
        try:
            group, shard_id = self._bad_groups(compiled)[0]
            with pytest.raises(QueryError):
                sub.score_group(model, shard_id, group, universe, 5)
            # the worker survived the bad request and still serves
            good = [(0, compiled.nodes[0], 0)]
            assert sub.score_group(model, 0, good, universe, 3)
            assert all(sub.poll().values())
        finally:
            sub.close()

    @pytest.mark.parametrize("backend_kind", ("thread", "process"))
    def test_facade_unknown_query_same_error(self, backend_kind):
        engine, _ds = toy_engine(
            shards=2, serving_backend=backend_kind, serving_workers=2
        )
        try:
            engine.fit("family", labels=_ds.class_labels("family"), num_examples=40)
            with pytest.raises(QueryError) as excinfo:
                engine.query_many("family", ["Bob", "Nobody"], k=3)
            assert "Nobody" in str(excinfo.value)
        finally:
            engine.close()


class TestBackendLifecycle:
    def test_missing_snapshot_fails_loudly(self, tmp_path):
        backend = SubprocessBackend(tmp_path / "nope", 2)
        with pytest.raises(Exception):
            backend.start()

    def test_close_terminates_all_workers(self, served):
        *_rest, snapshot = served
        backend = SubprocessBackend(snapshot, 2, replicas=2)
        backend.start()
        procs = [
            handle.proc for handles in backend._workers for handle in handles
        ]
        assert len(procs) == 4 and all(p.poll() is None for p in procs)
        backend.close()
        assert all(p.poll() is not None for p in procs)
        backend.close()  # idempotent

    def test_closed_backend_refuses_restart(self, served):
        *_rest, snapshot = served
        backend = SubprocessBackend(snapshot, 1)
        backend.start()
        backend.close()
        with pytest.raises(ServingError, match="closed"):
            backend.start()

    def test_invalid_settings_rejected(self, served):
        *_rest, snapshot = served
        with pytest.raises(ValueError):
            SubprocessBackend(snapshot, 0)
        with pytest.raises(ValueError):
            SubprocessBackend(snapshot, 2, replicas=0)


class TestFacadeProcessServing:
    @pytest.mark.parametrize("num_shards", (1, 3))
    def test_facade_parity(self, num_shards):
        baseline, ds = toy_engine()
        proc, _ = toy_engine(
            shards=num_shards, serving_workers=2,
            serving_backend="process", replicas=2,
        )
        try:
            labels = ds.class_labels("family")
            baseline.fit("family", labels=labels, num_examples=40)
            proc.fit("family", labels=labels, num_examples=40)
            queries = list(baseline.universe())
            for k in (None, 0, 3):
                assert proc.query_many("family", queries, k=k) == (
                    baseline.query_many("family", queries, k=k)
                )
            assert proc.query("family", queries[0], k=2) == baseline.query(
                "family", queries[0], k=2
            )
        finally:
            proc.close()
            baseline.close()

    def test_facade_parity_after_updates_and_swap(self):
        from repro.index.delta import GraphDelta

        baseline, ds = toy_engine()
        proc, _ = toy_engine(
            shards=2, serving_workers=2, serving_backend="process"
        )
        try:
            labels = ds.class_labels("classmates")
            baseline.fit("classmates", labels=labels, num_examples=40)
            proc.fit("classmates", labels=labels, num_examples=40)
            queries = list(baseline.universe())
            assert proc.query_many("classmates", queries, k=4) == (
                baseline.query_many("classmates", queries, k=4)
            )
            router = proc._router
            old_backend = router.backend
            delta = (
                GraphDelta()
                .add_node("Mia", "user")
                .add_edge("Mia", "College A")
                .add_edge("Mia", "Physics")
                .remove_edge("Kate", "Music")
            )
            baseline.apply_updates(delta)
            proc.apply_updates(delta)
            queries = list(baseline.universe())
            # first post-update query triggers the zero-downtime swap:
            # same router object, fresh worker fleet, current snapshot
            assert proc.query_many("classmates", queries, k=4) == (
                baseline.query_many("classmates", queries, k=4)
            )
            assert proc._router is router
            assert router.backend is not old_backend
            # the explicit swap hook serves identically again
            swapped = router.backend
            proc.refresh_serving()
            assert router.backend is not swapped
            assert proc.query_many("classmates", queries, k=4) == (
                baseline.query_many("classmates", queries, k=4)
            )
        finally:
            proc.close()
            baseline.close()

    def test_from_index_serves_the_user_snapshot_in_place(self, tmp_path):
        engine, ds = toy_engine()
        engine.fit("family", labels=ds.class_labels("family"), num_examples=40)
        target = engine.save_index(tmp_path / "snap")
        flat = SemanticProximitySearch.from_index(target, engine.graph)
        proc = SemanticProximitySearch.from_index(
            target, engine.graph, shards=2, serving_backend="process"
        )
        try:
            queries = list(engine.universe())
            assert proc.query_many("family", queries, k=3) == (
                flat.query_many("family", queries, k=3)
            )
            # workers mmap the user's snapshot where it lies: no copy
            # was saved into an engine-owned temp directory
            assert proc._snapshot_path == target
            assert proc._snapshots_tmp is None
        finally:
            proc.close()
            flat.close()
            engine.close()

    def test_unknown_serving_backend_rejected(self):
        from repro.datasets.toy import toy_dataset

        ds = toy_dataset()
        with pytest.raises(ValueError, match="serving_backend"):
            SemanticProximitySearch(ds.graph, serving_backend="socket")
