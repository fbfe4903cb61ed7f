"""Sharded serving through the SemanticProximitySearch facade.

Covers the facade wiring the shard suite cannot see: trained (not
uniform) weights, router invalidation across ``apply_updates``, the
re-``prepare()`` lifecycle, and snapshot restores with
``shards``/``serving_workers``.
"""

from __future__ import annotations

import pytest

from repro import SemanticProximitySearch
from repro.datasets.toy import toy_dataset, toy_metagraphs
from repro.index.delta import GraphDelta
from repro.learning.trainer import TrainerConfig
from repro.metagraph.catalog import MetagraphCatalog
from repro.mining import MinerConfig
from tests.conftest import random_typed_graph
from tests.serving.test_shards import synthetic_catalog

SHARD_COUNTS = (1, 2, 3, 5, 16)


def toy_engine(**kwargs) -> tuple[SemanticProximitySearch, object]:
    ds = toy_dataset()
    spx = SemanticProximitySearch(
        ds.graph,
        miner_config=MinerConfig(max_nodes=4, min_support=1),
        trainer_config=TrainerConfig(restarts=2, max_iterations=300, seed=0),
        **kwargs,
    )
    catalog = MetagraphCatalog(toy_metagraphs().values(), anchor_type="user")
    spx.prepare(catalog=catalog)
    return spx, ds


class TestFacadeSharding:
    def test_constructor_validation(self):
        ds = toy_dataset()
        with pytest.raises(ValueError):
            SemanticProximitySearch(ds.graph, shards=0)
        with pytest.raises(ValueError):
            SemanticProximitySearch(ds.graph, serving_workers=0)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_trained_model_parity_on_toy(self, num_shards):
        baseline, ds = toy_engine()
        sharded, _ds = toy_engine(shards=num_shards, serving_workers=2)
        labels = ds.class_labels("family")
        baseline.fit("family", labels=labels, num_examples=40)
        sharded.fit("family", labels=labels, num_examples=40)
        queries = list(baseline.universe())
        for k in (None, 0, 3):
            assert sharded.query_many("family", queries, k=k) == (
                baseline.query_many("family", queries, k=k)
            )
        for query in queries:
            assert sharded.query("family", query, k=3) == baseline.query(
                "family", query, k=3
            )

    @pytest.mark.parametrize("num_shards", (2, 5))
    def test_parity_after_apply_updates(self, num_shards):
        baseline, ds = toy_engine()
        sharded, _ds = toy_engine(shards=num_shards, serving_workers=2)
        labels = ds.class_labels("classmates")
        baseline.fit("classmates", labels=labels, num_examples=40)
        sharded.fit("classmates", labels=labels, num_examples=40)
        delta = (
            GraphDelta()
            .add_node("Mia", "user")
            .add_edge("Mia", "College A")
            .add_edge("Mia", "Physics")
            .remove_edge("Kate", "Music")
        )
        baseline.apply_updates(delta)
        sharded.apply_updates(delta)
        queries = list(baseline.universe())
        assert "Mia" in queries
        assert sharded.query_many("classmates", queries, k=4) == (
            baseline.query_many("classmates", queries, k=4)
        )

    def test_router_rebuilt_after_updates(self):
        sharded, ds = toy_engine(shards=3)
        sharded.fit("family", labels=ds.class_labels("family"), num_examples=40)
        sharded.query_many("family", ["Bob"], k=2)
        first = sharded._router
        first_backend = first.backend
        sharded.apply_updates(GraphDelta().remove_edge("Kate", "Music"))
        sharded.query_many("family", ["Bob"], k=2)
        # zero-downtime swap: the router object survives, its backend is
        # rebuilt over (and serves) the *current* snapshot
        assert sharded._router is first
        assert sharded._router.backend is not first_backend
        assert sharded._router.backend.sharded.source is sharded.vectors.compile()

    def test_reprepare_closes_previous_router(self):
        # re-preparing replaces the snapshot: the old router (and its
        # thread pool / worker processes) must be closed, not leaked
        sharded, ds = toy_engine(shards=3)
        sharded.fit("family", labels=ds.class_labels("family"), num_examples=40)
        sharded.query_many("family", ["Bob"], k=2)
        old = sharded._router
        assert old is not None and old.backend is not None
        catalog = MetagraphCatalog(toy_metagraphs().values(), anchor_type="user")
        sharded.prepare(catalog=catalog)
        assert sharded._router is None
        assert old.backend is None  # closed

    def test_engine_close_is_idempotent_and_recoverable(self):
        sharded, ds = toy_engine(shards=2)
        sharded.fit("family", labels=ds.class_labels("family"), num_examples=40)
        sharded.query_many("family", ["Bob"], k=2)
        router = sharded._router
        sharded.close()
        assert sharded._router is None and router.backend is None
        sharded.close()
        # serving recovers: the router rebuilds lazily on the next query
        assert sharded.query_many("family", ["Bob"], k=2)
        sharded.close()

    def test_engine_context_manager_closes_router(self):
        with toy_engine(shards=2)[0] as engine:
            engine.fit("family", labels=toy_dataset().class_labels("family"),
                       num_examples=40)
            engine.query_many("family", ["Bob"], k=2)
            router = engine._router
        assert engine._router is None and router.backend is None

    def test_router_survives_noop_updates(self):
        sharded, ds = toy_engine(shards=3)
        sharded.fit("family", labels=ds.class_labels("family"), num_examples=40)
        sharded.query_many("family", ["Bob"], k=2)
        first = sharded._router
        sharded.apply_updates(GraphDelta().add_edge("Kate", "Music"))  # no-op
        sharded.query_many("family", ["Bob"], k=2)
        assert sharded._router is first

    @pytest.mark.parametrize("num_shards", (2, 4))
    def test_synthetic_parity_via_snapshot_restore(self, tmp_path, num_shards):
        graph = random_typed_graph(seed=11, num_users=25)
        spx = SemanticProximitySearch(graph)
        spx.prepare(catalog=synthetic_catalog())
        spx.fit(
            "circle",
            triplets=[("u0", "u1", "u2"), ("u3", "u4", "u5")],
        )
        target = tmp_path / "snap"
        spx.save_index(target)
        flat = SemanticProximitySearch.from_index(target, graph)
        sharded = SemanticProximitySearch.from_index(
            target, graph, shards=num_shards, serving_workers=3
        )
        queries = list(flat.universe())
        assert sharded.query_many("circle", queries, k=5) == flat.query_many(
            "circle", queries, k=5
        )


class TestOneScore:
    """``proximity`` is the score ``rank`` reports — one float, to the bit.

    Every reader scores off the same compiled dot arrays with the same
    arithmetic, so the pairwise value, its mirror image and the ranked
    score cannot drift apart, sharded or not, before or after updates.
    Random (non-dyadic) weights over a mined catalog make any second
    summation order visible in the last bits.
    """

    @pytest.fixture(scope="class")
    def snapshot(self, tmp_path_factory):
        import numpy as np

        from repro.datasets import load_dataset
        from repro.index import save_index

        dataset = load_dataset("linkedin", scale="tiny")
        spx = SemanticProximitySearch(
            dataset.graph, miner_config=MinerConfig(max_nodes=4, min_support=3)
        )
        spx.prepare()
        weights = np.random.default_rng(0).uniform(0.05, 1.0, len(spx.catalog))
        target = tmp_path_factory.mktemp("one-score") / "snap"
        save_index(
            target, spx.vectors, spx.catalog, graph=dataset.graph,
            index=spx.index, models={"random": weights},
        )
        return target, dataset.graph

    @staticmethod
    def assert_one_score(engine):
        compared = 0
        for query in engine.universe():
            ranking = engine.query("random", query, k=None)
            for node, score in ranking:
                assert engine.proximity("random", query, node) == score
                assert engine.proximity("random", node, query) == score
            compared += sum(score > 0.0 for _node, score in ranking)
        assert compared > 100  # the property was exercised on real scores

    @pytest.mark.parametrize("num_shards", (1, 3))
    def test_proximity_is_the_rank_score(self, snapshot, num_shards):
        target, graph = snapshot
        with SemanticProximitySearch.from_index(
            target, graph.copy(), shards=num_shards, serving_workers=2
        ) as engine:
            self.assert_one_score(engine)
            user = engine.universe()[0]
            attribute = sorted(engine.graph.neighbors(user), key=repr)[0]
            stats = engine.apply_updates(
                GraphDelta()
                .remove_edge(user, attribute)
                .add_node("one-score-newcomer", "user")
                .add_edge("one-score-newcomer", attribute)
            )
            assert stats.edits_applied == 3
            self.assert_one_score(engine)
