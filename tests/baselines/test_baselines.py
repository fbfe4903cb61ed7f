"""Tests for the comparison algorithms: PPR, SRW, SimRank, MGP variants."""

import numpy as np
import pytest

from repro.baselines.mgp_variants import mgp_uniform, train_mgp_best, train_mpp
from repro.baselines.pagerank import (
    NodeIndexer,
    personalized_pagerank,
    ppr_ranker,
    transition_matrix,
)
from repro.baselines.simrank import SimRank
from repro.baselines.srw import SRWModel
from repro.datasets import load_dataset
from repro.exceptions import LearningError, ReproError, TrainingDataError
from repro.index.parallel import build_index
from repro.learning.trainer import Trainer, TrainerConfig
from repro.metagraph.catalog import MetagraphCatalog

USERS = ["Alice", "Bob", "Kate", "Jay", "Tom"]


class TestPageRank:
    def test_distribution_sums_to_one(self, toy_graph):
        indexer = NodeIndexer(toy_graph)
        q = transition_matrix(toy_graph, indexer)
        p = personalized_pagerank(q, indexer.index["Kate"])
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0)

    def test_restart_node_has_highest_mass(self, toy_graph):
        indexer = NodeIndexer(toy_graph)
        q = transition_matrix(toy_graph, indexer)
        p = personalized_pagerank(q, indexer.index["Kate"], alpha=0.3)
        assert p.argmax() == indexer.index["Kate"]

    def test_rows_stochastic(self, toy_graph):
        indexer = NodeIndexer(toy_graph)
        q = transition_matrix(toy_graph, indexer)
        sums = np.asarray(q.sum(axis=1)).ravel()
        for node in toy_graph.nodes():
            expected = 1.0 if toy_graph.degree(node) else 0.0
            assert sums[indexer.index[node]] == pytest.approx(expected)

    def test_strength_function_biases_walk(self, toy_graph):
        indexer = NodeIndexer(toy_graph)

        def prefer_school(u, v):
            pair = toy_graph.edge_type_pair(u, v)
            return 10.0 if "school" in pair else 1.0

        q = transition_matrix(toy_graph, indexer, strength=prefer_school)
        p = personalized_pagerank(q, indexer.index["Bob"], alpha=0.2)
        q_uniform = transition_matrix(toy_graph, indexer)
        p_uniform = personalized_pagerank(q_uniform, indexer.index["Bob"], alpha=0.2)
        assert p[indexer.index["College A"]] > p_uniform[indexer.index["College A"]]

    def test_ppr_ranker_excludes_query(self, toy_graph):
        ranker = ppr_ranker(toy_graph, USERS)
        ranked = ranker("Kate")
        assert "Kate" not in ranked
        assert set(ranked) == set(USERS) - {"Kate"}

    def test_dangling_node_handled(self):
        from repro.graph.typed_graph import TypedGraph

        g = TypedGraph()
        g.add_node("a", "user")
        g.add_node("b", "user")
        g.add_node("lonely", "user")
        g.add_edge("a", "b")
        indexer = NodeIndexer(g)
        q = transition_matrix(g, indexer)
        p = personalized_pagerank(q, indexer.index["lonely"])
        assert p.sum() == pytest.approx(1.0)
        assert p[indexer.index["lonely"]] == pytest.approx(1.0)


class TestSRW:
    @pytest.fixture(scope="class")
    def dataset(self):
        return load_dataset("linkedin", scale="tiny")

    def test_feature_space(self, dataset):
        model = SRWModel(dataset.graph)
        assert model.num_features == 3  # user-{college,employer,location}

    def test_fit_learns_class_relevant_feature(self, dataset):
        from repro.learning.examples import generate_triplets

        labels = dataset.class_labels("college")
        queries = dataset.queries("college")[:12]
        triplets = generate_triplets(
            queries, labels, dataset.universe, num_examples=60, seed=0
        )
        model = SRWModel(dataset.graph, epochs=15, power_iterations=25, seed=1)
        model.fit(triplets)
        features = {pair: k for pair, k in model.feature_of_pair.items()}
        college_k = features[("college", "user")]
        location_k = features[("location", "user")]
        # the college edge type must end up stronger than the irrelevant one
        assert model.theta[college_k] > model.theta[location_k]

    def test_rank_shape(self, dataset):
        model = SRWModel(dataset.graph, epochs=2, power_iterations=15)
        from repro.learning.examples import generate_triplets

        labels = dataset.class_labels("college")
        queries = dataset.queries("college")[:5]
        triplets = generate_triplets(
            queries, labels, dataset.universe, num_examples=10, seed=0
        )
        model.fit(triplets)
        ranked = model.rank(queries[0], dataset.universe, k=10)
        assert len(ranked) == 10
        assert all(score >= 0 for _n, score in ranked)
        assert queries[0] not in [n for n, _s in ranked]

    def test_empty_triplets_rejected(self, dataset):
        with pytest.raises(TrainingDataError):
            SRWModel(dataset.graph).fit([])


class TestSimRank:
    def test_self_similarity_one(self, toy_graph):
        sim = SimRank(toy_graph, iterations=4)
        assert sim.similarity("Kate", "Kate") == pytest.approx(1.0)

    def test_symmetric(self, toy_graph):
        sim = SimRank(toy_graph, iterations=4)
        assert sim.similarity("Kate", "Jay") == pytest.approx(
            sim.similarity("Jay", "Kate")
        )

    def test_shared_structure_scores_higher(self, toy_graph):
        sim = SimRank(toy_graph, iterations=4)
        # Kate and Jay share three attributes; Kate and Tom share nothing
        assert sim.similarity("Kate", "Jay") > sim.similarity("Kate", "Tom")

    def test_rank(self, toy_graph):
        sim = SimRank(toy_graph, iterations=4)
        ranked = sim.rank("Kate", USERS, k=2)
        assert len(ranked) == 2

    def test_size_guard(self, toy_graph):
        with pytest.raises(ReproError):
            SimRank(toy_graph, max_nodes=3)

    def test_sparse_matches_dense(self, toy_graph):
        """The scipy-sparse iteration is a pure speed change."""
        pytest.importorskip("scipy")
        import numpy as np

        sparse = SimRank(toy_graph, iterations=5, use_sparse=True)
        dense = SimRank(toy_graph, iterations=5, use_sparse=False)
        assert np.allclose(sparse._scores, dense._scores)
        for x in ("Kate", "Alice"):
            for y in USERS:
                assert sparse.similarity(x, y) == pytest.approx(
                    dense.similarity(x, y)
                )

    def test_sparse_matches_dense_on_random_graph(self):
        pytest.importorskip("scipy")
        import numpy as np

        from tests.conftest import random_typed_graph

        graph = random_typed_graph(11, num_users=10, num_attrs_per_type=4)
        sparse = SimRank(graph, iterations=6, use_sparse=True)
        dense = SimRank(graph, iterations=6, use_sparse=False)
        assert np.allclose(sparse._scores, dense._scores)

    def test_raised_guard_admits_midsize_graphs(self):
        """The sparse iteration is why its default guard sits at 10k."""
        pytest.importorskip("scipy")  # the dense fallback keeps the 4k guard
        from repro.graph.typed_graph import TypedGraph

        graph = TypedGraph()
        for i in range(4001):  # over the old dense-W limit of 4000
            graph.add_node(i, "user" if i % 2 else "hobby")
        for i in range(1, 4001):
            graph.add_edge(i, i - 1)
        sim = SimRank(graph, iterations=1)
        assert sim.similarity(0, 0) == pytest.approx(1.0)


class TestMGPVariants:
    @pytest.fixture(scope="class")
    def setup(self, request):
        from tests.conftest import build_toy_graph, fig2_metagraphs

        graph = build_toy_graph()
        catalog = MetagraphCatalog(fig2_metagraphs().values(), anchor_type="user")
        vectors, _ = build_index(graph, catalog)
        return graph, catalog, vectors

    def test_mpp_uses_only_metapaths(self, setup):
        _graph, catalog, vectors = setup
        triplets = [("Bob", "Alice", "Tom"), ("Alice", "Bob", "Kate")]
        model = train_mpp(
            catalog, vectors, triplets,
            Trainer(TrainerConfig(restarts=1, max_iterations=50)),
        )
        non_paths = set(catalog.non_metapath_ids())
        assert all(model.weights[i] == 0.0 for i in non_paths)
        assert model.name == "MPP"

    def test_mpp_without_metapaths_raises(self, setup):
        from tests.conftest import fig2_metagraphs

        graphs = fig2_metagraphs()
        catalog = MetagraphCatalog([graphs["M1"]], anchor_type="user")
        _graph, _full_catalog, _vectors = setup
        from tests.conftest import build_toy_graph

        vectors, _ = build_index(build_toy_graph(), catalog)
        with pytest.raises(LearningError):
            train_mpp(catalog, vectors, [("Bob", "Alice", "Tom")])

    def test_uniform(self, setup):
        _graph, _catalog, vectors = setup
        model = mgp_uniform(vectors)
        assert np.array_equal(model.weights, np.ones(4))

    def test_mgp_best_picks_class_metagraph(self, setup, toy_metagraphs):
        _graph, catalog, vectors = setup
        from repro.datasets.toy import toy_dataset

        ds = toy_dataset()
        labels = ds.class_labels("classmates")
        model = train_mgp_best(
            vectors, ds.queries("classmates"), labels, USERS
        )
        m1_id = catalog.id_of(toy_metagraphs["M1"])
        assert model.weights[m1_id] == 1.0  # M1 is the classmate signature

    def test_mgp_best_empty_store_raises(self):
        from repro.index.vectors import MetagraphVectors

        with pytest.raises(LearningError):
            train_mgp_best(MetagraphVectors(4), [], {}, [])
