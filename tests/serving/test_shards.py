"""Shard partitioning invariants and sharded-vs-unsharded parity.

The serving tier's contract is *bit-identical* rankings: for every
shard count K, every query, every k, the sharded router must return
exactly the lists the single-process compiled path returns — same
nodes, same float bits, same tie order.  The suites below prove it on
the paper's toy graph, on random synthetic graphs, and across dynamic
updates.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.datasets.toy import toy_dataset, toy_metagraphs
from repro.index.parallel import build_index
from repro.learning.model import SortedUniverse, uniform_model
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import metapath
from repro.serving import (
    InProcessBackend,
    QueryRouter,
    ShardedVectors,
    partition_compiled,
    shard_ranges,
)
from tests.conftest import random_typed_graph
from tests.oracles import reference_shard

SHARD_COUNTS = (1, 2, 3, 5, 16)


def in_process(compiled, num_shards):
    return InProcessBackend(ShardedVectors.partition(compiled, num_shards))


def synthetic_catalog() -> MetagraphCatalog:
    return MetagraphCatalog(
        [
            metapath("user", t, "user", name=f"P-{t}")
            for t in ("school", "hobby", "employer")
        ],
        anchor_type="user",
    )


@pytest.fixture(scope="module")
def toy_setup():
    ds = toy_dataset()
    catalog = MetagraphCatalog(toy_metagraphs().values(), anchor_type="user")
    vectors, _ = build_index(ds.graph, catalog)
    model = uniform_model(vectors).compile()
    universe = SortedUniverse(ds.graph.nodes_of_type("user"))
    return vectors.compile(), model, universe


@pytest.fixture(scope="module")
def synthetic_setup():
    graph = random_typed_graph(seed=7, num_users=40)
    vectors, _ = build_index(graph, synthetic_catalog())
    model = uniform_model(vectors).compile()
    universe = SortedUniverse(graph.nodes_of_type("user"))
    return vectors.compile(), model, universe


class TestShardRanges:
    def test_ranges_cover_and_balance(self):
        for n in (0, 1, 5, 17, 100):
            for k in (1, 2, 3, 7, 150):
                ranges = shard_ranges(n, k)
                assert len(ranges) == k
                assert ranges[0][0] == 0 and ranges[-1][1] == n
                sizes = [hi - lo for lo, hi in ranges]
                assert sum(sizes) == n
                assert max(sizes) - min(sizes) <= 1
                for (_, a), (b, _) in zip(ranges, ranges[1:]):
                    assert a == b

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_ranges(10, 0)


class TestPartitionInvariants:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_shards_reconstruct_the_universe(self, toy_setup, num_shards):
        compiled, _model, _universe = toy_setup
        shards = partition_compiled(compiled, num_shards)
        owned = [
            compiled.nodes[pos]
            for shard in shards
            for pos in range(shard.lo, shard.hi)
        ]
        assert owned == list(compiled.nodes)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_per_row_dots_match_unsharded(self, synthetic_setup, num_shards):
        compiled, model, _universe = synthetic_setup
        full_node = compiled.node_dot_products(model.weights)
        shards = partition_compiled(compiled, num_shards)
        for shard in shards:
            local = shard.node_dot_products(model.weights)
            for own in range(shard.num_owned):
                global_pos = shard.lo + own
                local_row = shard.local_row(global_pos)
                # bit-identical, not approximately equal: rows are
                # sliced intact so the summation order is unchanged
                assert local[local_row] == full_node[global_pos]

    @pytest.mark.parametrize("setup", ["toy_setup", "synthetic_setup"])
    @pytest.mark.parametrize("num_shards", (1, 2, 3, 4, 5, "more than nodes"))
    def test_masks_slice_like_set_operations(self, request, setup, num_shards):
        """The mask/rank slicing equals the union1d/unique/searchsorted one."""
        compiled, _model, _universe = request.getfixturevalue(setup)
        if num_shards == "more than nodes":
            num_shards = compiled.num_nodes + 3
        for shard in partition_compiled(compiled, num_shards):
            want = reference_shard(compiled, shard.lo, shard.hi)
            assert shard.nodes == want.pop("nodes")
            assert shard.own_offset == want.pop("own_offset")
            for name, array in want.items():
                got = getattr(shard, name)
                assert got.dtype == array.dtype, name
                assert np.array_equal(got, array), name
            if shard.num_owned:
                assert shard.nodes[shard.own_offset] == compiled.nodes[shard.lo]

    def test_shard_arrays_are_read_only(self, toy_setup):
        compiled, _model, _universe = toy_setup
        shard = partition_compiled(compiled, 2)[0]
        with pytest.raises(ValueError):
            shard.node_data[0] = 99.0

    def test_local_row_rejects_foreign_positions(self, toy_setup):
        compiled, _model, _universe = toy_setup
        shards = partition_compiled(compiled, 2)
        with pytest.raises(IndexError):
            shards[0].local_row(shards[1].lo)


def assert_bit_identical(sharded, unsharded):
    assert len(sharded) == len(unsharded)
    for a, b in zip(sharded, unsharded):
        assert [n for n, _ in a] == [n for n, _ in b]
        # float bits, not tolerances
        assert [s for _, s in a] == [s for _, s in b]


class TestParity:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_toy_full_parity(self, toy_setup, num_shards):
        compiled, model, universe = toy_setup
        with QueryRouter(
            in_process(compiled, num_shards), workers=2
        ) as router:
            for k in (None, 0, 1, 3, 100):
                queries = list(universe)
                sharded = router.rank_many(model, queries, universe=universe, k=k)
                unsharded = [
                    model.rank(q, universe=universe, k=k) for q in queries
                ]
                assert_bit_identical(sharded, unsharded)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_synthetic_full_parity(self, num_shards, seed):
        graph = random_typed_graph(seed=seed, num_users=30)
        vectors, _ = build_index(graph, synthetic_catalog())
        model = uniform_model(vectors).compile()
        compiled = vectors.compile()
        universe = SortedUniverse(graph.nodes_of_type("user"))
        queries = list(universe)
        with QueryRouter(
            in_process(compiled, num_shards), workers=3
        ) as router:
            sharded = router.rank_many(model, queries, universe=universe, k=5)
        unsharded = [model.rank(q, universe=universe, k=5) for q in queries]
        assert_bit_identical(sharded, unsharded)

    def test_parity_without_universe(self, synthetic_setup):
        compiled, model, _universe = synthetic_setup
        queries = list(compiled.nodes)
        with QueryRouter(in_process(compiled, 4)) as router:
            sharded = router.rank_many(model, queries, k=None)
        unsharded = [model.rank(q, k=None) for q in queries]
        assert_bit_identical(sharded, unsharded)

    def test_single_query_rank_matches(self, toy_setup):
        compiled, model, universe = toy_setup
        with QueryRouter(in_process(compiled, 3)) as router:
            for query in universe:
                assert router.rank(
                    model, query, universe=universe, k=4
                ) == model.rank(query, universe=universe, k=4)

    def test_node_absent_from_counts_pads_like_unsharded(self, toy_setup):
        # an anchor node with no instances is not a compiled row; both
        # tiers must answer with the zero-padded universe, not an error
        compiled, model, universe = toy_setup
        ghost_universe = SortedUniverse(list(universe) + ["Zz-new-user"])
        with QueryRouter(in_process(compiled, 2)) as router:
            sharded = router.rank_many(
                model, ["Zz-new-user"], universe=ghost_universe, k=4
            )
        assert sharded == [
            model.rank("Zz-new-user", universe=ghost_universe, k=4)
        ]


class TestRouterBehaviour:
    def test_negative_k_raises(self, toy_setup):
        compiled, model, universe = toy_setup
        with QueryRouter(in_process(compiled, 2)) as router:
            with pytest.raises(ValueError):
                router.rank_many(model, ["Bob"], universe=universe, k=-1)

    def test_invalid_workers(self, toy_setup):
        compiled, _model, _universe = toy_setup
        with pytest.raises(ValueError):
            QueryRouter(in_process(compiled, 2), workers=0)

    def test_bare_shard_set_rejected(self, toy_setup):
        # the router takes a ShardBackend only; no auto-wrapping
        compiled, _model, _universe = toy_setup
        with pytest.raises((TypeError, AttributeError)):
            QueryRouter(ShardedVectors.partition(compiled, 2))

    def test_uncompiled_model_rejected(self, toy_setup):
        from repro.exceptions import LearningError

        # every model is compiled against *its store's* snapshot; one
        # that is not on the router's snapshot must not be scored with
        # the router's shard arrays
        compiled, model, universe = toy_setup
        foreign = uniform_model(copy.deepcopy(model.vectors))
        assert foreign.compiled is not compiled
        with QueryRouter(in_process(compiled, 2)) as router:
            with pytest.raises(LearningError):
                router.rank_many(foreign, ["Bob"], universe=universe, k=3)

    def test_empty_batch(self, toy_setup):
        compiled, model, universe = toy_setup
        with QueryRouter(in_process(compiled, 2)) as router:
            assert router.rank_many(model, [], universe=universe, k=3) == []

    def test_close_is_idempotent(self, toy_setup):
        compiled, model, universe = toy_setup
        router = QueryRouter(in_process(compiled, 4), workers=2)
        router.rank_many(model, list(universe), universe=universe, k=2)
        router.close()
        router.close()

    def test_model_dots_cached_per_snapshot(self, toy_setup):
        compiled, model, universe = toy_setup
        router = QueryRouter(in_process(compiled, 2))
        first = router.backend._model_dots(model)
        assert router.backend._model_dots(model) is first
        router.close()

    def test_model_dots_die_with_the_model(self, toy_setup):
        # weak keys: a replaced model's cached dots must not linger (a
        # recycled id() once served another model's stale weights here)
        import gc

        compiled, model, universe = toy_setup
        router = QueryRouter(in_process(compiled, 2))
        throwaway = uniform_model(model.vectors).compile()
        router.rank_many(throwaway, ["Bob"], universe=universe, k=2)
        assert len(router.backend._dots) == 1
        del throwaway
        gc.collect()
        assert len(router.backend._dots) == 0
        router.close()


class TestMoreShardsThanNodes:
    def test_oversized_shard_count_still_parity(self, toy_setup):
        compiled, model, universe = toy_setup
        num_shards = compiled.num_nodes + 5
        with QueryRouter(
            in_process(compiled, num_shards), workers=2
        ) as router:
            queries = list(universe)
            sharded = router.rank_many(model, queries, universe=universe, k=3)
            unsharded = [model.rank(q, universe=universe, k=3) for q in queries]
            assert_bit_identical(sharded, unsharded)
