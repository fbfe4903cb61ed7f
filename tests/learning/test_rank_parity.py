"""Compiled-vs-oracle ranking parity, and the universe-restriction fix.

The compiled CSR path — the only one in ``src/`` — must be rank-identical
to the scalar reference kept in :mod:`tests.oracles`: same nodes, same
tie-break order, scores within 1e-12.
Parity is exercised on randomized synthetic graphs across weight
regimes, including tie-heavy weight vectors where many candidates share
the exact same proximity.
"""

import numpy as np
import pytest

from repro.index.vectors import build_vectors
from repro.learning.model import ProximityModel, SortedUniverse, uniform_model
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import metapath
from tests.conftest import random_typed_graph
from tests.oracles import ScalarModel, partners


def _random_setup(seed: int):
    graph = random_typed_graph(seed, num_users=15)
    catalog = MetagraphCatalog(
        [
            metapath("user", t, "user", name=f"P-{t}")
            for t in ("school", "hobby", "employer")
        ],
        anchor_type="user",
    )
    vectors, _ = build_vectors(graph, catalog)
    users = sorted(graph.nodes_of_type("user"), key=repr)
    return vectors, users


# dyadic-rational weights keep both paths' float arithmetic exact, so
# even equal-score ties agree bit for bit; "tie-heavy" regimes (uniform
# and one-hot weights) force large groups of identical scores
WEIGHT_REGIMES = {
    "uniform-ties": np.array([1.0, 1.0, 1.0]),
    "one-hot-ties": np.array([0.0, 1.0, 0.0]),
    "dyadic": np.array([0.25, 0.5, 0.125]),
    "sparse-dyadic": np.array([0.0, 0.75, 0.5]),
}


def assert_rank_parity(scalar_model, compiled_model, query, universe, k):
    scalar = scalar_model.rank(query, universe=universe, k=k)
    compiled = compiled_model.rank(query, universe=universe, k=k)
    assert [node for node, _ in scalar] == [node for node, _ in compiled], (
        f"rank order diverged for query={query!r} k={k}"
    )
    for (_, a), (_, b) in zip(scalar, compiled):
        assert a == pytest.approx(b, abs=1e-12)


class TestParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("regime", sorted(WEIGHT_REGIMES))
    def test_randomized_graphs(self, seed, regime):
        vectors, users = _random_setup(seed)
        weights = WEIGHT_REGIMES[regime]
        scalar_model = ScalarModel(weights, vectors)
        compiled_model = ProximityModel(weights, vectors).compile()
        universes = [None, users, users[::2], SortedUniverse(users)]
        for query in users[:5]:
            for universe in universes:
                for k in (None, 0, 1, 3, 10, 10_000):
                    assert_rank_parity(
                        scalar_model, compiled_model, query, universe, k
                    )

    def test_random_float_weights(self):
        vectors, users = _random_setup(7)
        rng = np.random.default_rng(7)
        weights = rng.uniform(0.0, 1.0, 3)
        scalar_model = ScalarModel(weights, vectors)
        compiled_model = ProximityModel(weights, vectors).compile()
        for query in users[:6]:
            assert_rank_parity(scalar_model, compiled_model, query, users, 10)

    def test_toy_graph_all_classes(self, toy_graph, toy_metagraphs):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_vectors(toy_graph, catalog)
        users = ["Alice", "Bob", "Jay", "Kate", "Tom"]
        for weights in ([0.9, 0, 0, 0], [0, 0.6, 0.4, 0], [0, 0, 0, 0.8]):
            scalar_model = ScalarModel(np.array(weights, float), vectors)
            compiled_model = ProximityModel(np.array(weights, float), vectors)
            compiled_model.compile()
            for query in users:
                for k in (None, 2, 5):
                    assert_rank_parity(
                        scalar_model, compiled_model, query, users, k
                    )

    def test_query_without_counts(self, toy_graph, toy_metagraphs):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_vectors(toy_graph, catalog)
        compiled_model = uniform_model(vectors)
        model = ScalarModel.like(compiled_model)
        # "Zoe" has no metagraph counts at all
        universe = ["Alice", "Bob", "Zoe"]
        assert_rank_parity(model, compiled_model, "Zoe", universe, None)
        assert compiled_model.rank("Zoe", universe=universe) == [
            ("Alice", 0.0),
            ("Bob", 0.0),
        ]

    def test_k_edge_cases_agree_on_both_paths(self, toy_graph, toy_metagraphs):
        # k=0 is a legitimately empty request; a negative k is a caller
        # bug and must raise instead of silently returning [] (both
        # backends, same behaviour)
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_vectors(toy_graph, catalog)
        compiled_model = uniform_model(vectors).compile()
        scalar_model = ScalarModel.like(compiled_model)
        users = ["Alice", "Bob", "Kate"]
        assert scalar_model.rank("Kate", universe=users, k=0) == []
        assert compiled_model.rank("Kate", universe=users, k=0) == []
        for k in (-1, -5):
            with pytest.raises(ValueError):
                scalar_model.rank("Kate", universe=users, k=k)
            with pytest.raises(ValueError):
                compiled_model.rank("Kate", universe=users, k=k)

    def test_stale_snapshot_recompiled_after_new_counts(
        self, toy_graph, toy_metagraphs
    ):
        from repro.index.instance_index import match_and_count
        from repro.index.vectors import MetagraphVectors

        mgs = list(toy_metagraphs.values())
        catalog = MetagraphCatalog(mgs, anchor_type="user")
        vectors = MetagraphVectors(len(catalog), anchor_type="user")
        vectors.add_counts(0, match_and_count(toy_graph, mgs[0]))
        model = uniform_model(vectors).compile()
        before = model.rank("Kate")
        # folding in more metagraphs must invalidate the model's snapshot:
        # ranking, proximity and the scalar reference stay consistent
        for mg_id in (1, 2, 3):
            vectors.add_counts(mg_id, match_and_count(toy_graph, mgs[mg_id]))
        after = model.rank("Kate")
        scalar_after = ScalarModel.like(model).rank("Kate")
        assert after == scalar_after
        assert after != before
        assert dict(after)["Alice"] == model.proximity("Kate", "Alice")

    def test_stale_explicit_snapshot_rejected(self, toy_graph, toy_metagraphs):
        from repro.exceptions import LearningError
        from repro.index.instance_index import match_and_count
        from repro.index.vectors import MetagraphVectors

        mgs = list(toy_metagraphs.values())
        store = MetagraphVectors(len(mgs), anchor_type="user")
        store.add_counts(0, match_and_count(toy_graph, mgs[0]))
        stale = store.compile()
        store.add_counts(1, match_and_count(toy_graph, mgs[1]))
        with pytest.raises(LearningError):
            uniform_model(store).compile(stale)
        # the store's current snapshot is accepted
        assert uniform_model(store).compile(store.compile()).compiled is not None

    def test_all_zero_weights(self, toy_graph, toy_metagraphs):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_vectors(toy_graph, catalog)
        weights = np.zeros(4)
        scalar_model = ScalarModel(weights, vectors)
        compiled_model = ProximityModel(weights, vectors).compile()
        users = ["Alice", "Bob", "Jay", "Kate", "Tom"]
        for query in users:
            assert_rank_parity(scalar_model, compiled_model, query, users, None)


class TestUniverseRestriction:
    """Regression: rank(universe=...) must not leak out-of-universe nodes."""

    @pytest.fixture
    def toy_model(self, toy_graph, toy_metagraphs):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_vectors(toy_graph, catalog)
        return uniform_model(vectors)

    def test_scalar_path_filters(self, toy_model):
        # Kate's partners include Alice and Jay; restrict them away
        universe = ["Kate", "Bob", "Tom"]
        result = ScalarModel.like(toy_model).rank("Kate", universe=universe)
        assert {node for node, _ in result} == {"Bob", "Tom"}

    def test_compiled_path_filters(self, toy_model):
        toy_model.compile()
        universe = ["Kate", "Bob", "Tom"]
        result = toy_model.rank("Kate", universe=universe)
        assert {node for node, _ in result} == {"Bob", "Tom"}

    def test_partner_inside_universe_still_scored(self, toy_model):
        universe = ["Kate", "Jay", "Tom"]
        result = toy_model.rank("Kate", universe=universe)
        assert result[0][0] == "Jay" and result[0][1] > 0.0
        assert ("Tom", 0.0) in result

    def test_no_universe_returns_partners_only(self, toy_model):
        result = toy_model.rank("Kate")
        assert {node for node, _ in result} <= partners(
            toy_model.vectors, "Kate"
        )


class TestSortedUniverse:
    def test_constructor_dedupes_and_sorts(self):
        universe = SortedUniverse(["b", "a", "b", "c"])
        assert universe == ("a", "b", "c")
        assert universe.members() == {"a", "b", "c"}
        assert SortedUniverse() == ()

    def test_mask_cache_does_not_pin_snapshots(self, toy_graph, toy_metagraphs):
        import gc

        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_vectors(toy_graph, catalog)
        universe = SortedUniverse(["Alice", "Bob", "Kate"])
        snapshot = vectors.compile()
        universe.mask_over(snapshot)
        assert len(universe._masks) == 1
        # retire the snapshot (store mutation clears the cache ref)
        vectors._compiled = None
        del snapshot
        gc.collect()
        assert len(universe._masks) == 0

    def test_model_weights_frozen_after_init(self, toy_graph, toy_metagraphs):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_vectors(toy_graph, catalog)
        source = np.ones(4)
        model = ProximityModel(source, vectors).compile()
        with pytest.raises(ValueError):
            model.weights[0] = 0.5  # would desync the compiled dots
        source[0] = 0.5  # the model holds its own copy
        assert model.weights[0] == 1.0

    def test_members_cached(self):
        universe = SortedUniverse(["x", "y"])
        assert universe.members() is universe.members()

    def test_equivalent_to_raw_iterable(self, toy_graph, toy_metagraphs):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_vectors(toy_graph, catalog)
        model = uniform_model(vectors).compile()
        users = ["Alice", "Bob", "Jay", "Kate", "Tom"]
        assert model.rank("Kate", universe=users, k=4) == model.rank(
            "Kate", universe=SortedUniverse(users), k=4
        )
