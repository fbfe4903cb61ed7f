"""Property tests for Eq. 1-2 invariants on random graphs."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import csr_view
from repro.index.instance_index import compiled_match_and_count
from repro.index.parallel import build_index
from repro.learning.model import ProximityModel, uniform_model
from repro.matching import QuickSIMatcher, SymISOMatcher, find_instances
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph, metapath
from tests.conftest import random_typed_graph
from tests.oracles import ledger, reference_counts

PATTERNS = [
    metapath("user", "school", "user"),
    metapath("user", "hobby", "user"),
    Metagraph(
        ["user", "school", "hobby", "user"],
        [(0, 1), (0, 2), (3, 1), (3, 2)],
    ),
    Metagraph(["user", "user", "employer"], [(0, 1), (0, 2), (1, 2)]),
]


class TestCountInvariants:
    @given(st.integers(0, 2000))
    @settings(max_examples=20, deadline=None)
    def test_pair_counts_bounded_by_node_counts(self, seed):
        """Eq. 1 <= Eq. 2: m_xy[i] <= min(m_x[i], m_y[i])."""
        graph = random_typed_graph(seed, num_users=10, num_attrs_per_type=3)
        for pattern in PATTERNS:
            node_counts, pair_counts = ledger(compiled_match_and_count(csr_view(graph), pattern))
            for (x, y), c in pair_counts.items():
                assert c <= node_counts[x]
                assert c <= node_counts[y]

    @given(st.integers(0, 2000))
    @settings(max_examples=20, deadline=None)
    def test_counts_engine_independent(self, seed):
        """Eq. 1-2 counts must not depend on the matching engine."""
        graph = random_typed_graph(seed, num_users=9, num_attrs_per_type=3)
        for pattern in PATTERNS:
            a = reference_counts(graph, pattern, "user", SymISOMatcher())
            b = reference_counts(graph, pattern, "user", QuickSIMatcher())
            c = compiled_match_and_count(csr_view(graph), pattern)
            for counts in (b, c):
                assert (a.num_instances, *ledger(a)) == (counts.num_instances, *ledger(counts))

    @given(st.integers(0, 2000))
    @settings(max_examples=15, deadline=None)
    def test_node_count_at_most_instances(self, seed):
        graph = random_typed_graph(seed, num_users=9, num_attrs_per_type=3)
        for pattern in PATTERNS:
            counts = compiled_match_and_count(csr_view(graph), pattern)
            for node, c in ledger(counts)[0].items():
                assert 1 <= c <= counts.num_instances

    @given(st.integers(0, 2000))
    @settings(max_examples=15, deadline=None)
    def test_instances_count_matches_find_instances(self, seed):
        graph = random_typed_graph(seed, num_users=8, num_attrs_per_type=3)
        for pattern in PATTERNS:
            counts = compiled_match_and_count(csr_view(graph), pattern)
            instances = find_instances(SymISOMatcher(), graph, pattern)
            assert counts.num_instances == len(instances)


class TestModelProperties:
    @given(st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_rank_sorted_by_proximity(self, seed):
        graph = random_typed_graph(seed, num_users=10, num_attrs_per_type=3)
        catalog = MetagraphCatalog(PATTERNS, anchor_type="user")
        vectors, _ = build_index(graph, catalog)
        model = uniform_model(vectors)
        users = sorted(graph.nodes_of_type("user"))
        for query in users[:3]:
            ranking = model.rank(query, universe=users)
            scores = [s for _n, s in ranking]
            assert scores == sorted(scores, reverse=True)
            for node, score in ranking:
                assert score == model.proximity(query, node)

    @given(st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_proximity_symmetric_via_store(self, seed):
        """Theorem 1 symmetry holds end-to-end through the index."""
        graph = random_typed_graph(seed, num_users=8, num_attrs_per_type=3)
        catalog = MetagraphCatalog(PATTERNS, anchor_type="user")
        vectors, _ = build_index(graph, catalog)
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0, 1, len(catalog))
        model = ProximityModel(weights, vectors)
        users = sorted(graph.nodes_of_type("user"))
        for x in users[:4]:
            for y in users[:4]:
                assert model.proximity(x, y) == model.proximity(y, x)
