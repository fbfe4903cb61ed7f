"""Tests for instance counting (Eq. 1-2) and the vector store."""

import numpy as np
import pytest

from repro.exceptions import CatalogMismatchError
from repro.graph.csr import csr_view
from repro.index.instance_index import InstanceIndex, compiled_match_and_count
from repro.index.transform import get_transform, identity, log1p, sqrt
from repro.index.parallel import build_index
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import metapath
from tests.oracles import ledger


def node_vector(vectors, x):
    """m_x read the way the library reads it: off the compiled rows."""
    compiled = vectors.compile()
    return compiled.node_vector_dense(compiled.position(x))


def pair_vector(vectors, x, y):
    """m_xy off the compiled rows."""
    compiled = vectors.compile()
    return compiled.pair_vector_dense(
        compiled.pair_row(compiled.position(x), compiled.position(y))
    )


def partners(vectors, x):
    compiled = vectors.compile()
    positions, _rows = compiled.candidates_of(compiled.position(x))
    return {compiled.nodes[p] for p in positions}


@pytest.fixture
def toy_catalog(toy_metagraphs) -> MetagraphCatalog:
    return MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")


class TestMatchAndCount:
    """The builder's per-metagraph task, ``compiled_match_and_count``."""

    def test_m3_counts(self, toy_graph, toy_metagraphs):
        counts = compiled_match_and_count(csr_view(toy_graph), toy_metagraphs["M3"])
        node_counts, pair_counts = ledger(counts)
        assert counts.num_instances == 2
        assert pair_counts[("Alice", "Bob")] == 1
        assert pair_counts[("Jay", "Kate")] == 1
        assert node_counts["Alice"] == 1
        assert node_counts["Kate"] == 1

    def test_m1_counts(self, toy_graph, toy_metagraphs):
        counts = compiled_match_and_count(csr_view(toy_graph), toy_metagraphs["M1"])
        pair_counts = ledger(counts)[1]
        assert counts.num_instances == 2
        assert pair_counts[("Jay", "Kate")] == 1
        assert pair_counts[("Bob", "Tom")] == 1

    def test_pair_implies_node_count(self, toy_graph, toy_metagraphs):
        # Eq. 1 <= Eq. 2: every pair instance counts for both nodes
        for mg in toy_metagraphs.values():
            node_counts, pair_counts = ledger(compiled_match_and_count(csr_view(toy_graph), mg))
            per_node_from_pairs = {}
            for (x, y), c in pair_counts.items():
                per_node_from_pairs[x] = per_node_from_pairs.get(x, 0) + c
                per_node_from_pairs[y] = per_node_from_pairs.get(y, 0) + c
            for node, total in per_node_from_pairs.items():
                assert node_counts[node] <= total
                assert node_counts[node] >= 1

    def test_no_anchor_pairs_counts_instances_only(self, toy_graph):
        pattern = metapath("user", "school")  # no symmetric user pair
        counts = compiled_match_and_count(csr_view(toy_graph), pattern)
        assert counts.num_instances == 4  # user-school edges in Fig. 1
        assert ledger(counts) == ({}, {})


class TestInstanceIndex:
    def test_add_and_query(self, toy_graph, toy_metagraphs):
        index = InstanceIndex(4)
        counts = compiled_match_and_count(csr_view(toy_graph), toy_metagraphs["M3"])
        index.add(2, counts)
        assert index.is_matched(2)
        assert not index.is_matched(0)
        assert index.num_instances(2) == 2
        assert index.matched_ids() == frozenset({2})
        assert len(index) == 1

    def test_out_of_range_id(self):
        index = InstanceIndex(2)
        from repro.index.instance_index import MetagraphCounts

        with pytest.raises(IndexError):
            index.add(5, MetagraphCounts())


class TestMetagraphVectors:
    def test_build_all(self, toy_graph, toy_catalog):
        vectors, index = build_index(toy_graph, toy_catalog)
        assert vectors.matched_ids == frozenset(range(4))
        assert index.matched_ids() == frozenset(range(4))

    def test_pair_vector_values(self, toy_graph, toy_catalog, toy_metagraphs):
        vectors, _ = build_index(toy_graph, toy_catalog)
        m3_id = toy_catalog.id_of(toy_metagraphs["M3"])
        vec = pair_vector(vectors, "Alice", "Bob")
        assert vec[m3_id] == 1.0
        m4_id = toy_catalog.id_of(toy_metagraphs["M4"])
        assert vec[m4_id] == 1.0

    def test_pair_vector_symmetric(self, toy_graph, toy_catalog):
        vectors, _ = build_index(toy_graph, toy_catalog)
        assert np.array_equal(
            pair_vector(vectors, "Alice", "Bob"),
            pair_vector(vectors, "Bob", "Alice"),
        )

    def test_node_vector(self, toy_graph, toy_catalog, toy_metagraphs):
        vectors, _ = build_index(toy_graph, toy_catalog)
        m2_id = toy_catalog.id_of(toy_metagraphs["M2"])
        assert node_vector(vectors, "Kate")[m2_id] == 1.0
        assert node_vector(vectors, "Tom")[m2_id] == 0.0

    def test_partners(self, toy_graph, toy_catalog):
        vectors, _ = build_index(toy_graph, toy_catalog)
        assert "Bob" in partners(vectors, "Alice")
        assert "Kate" in partners(vectors, "Alice")  # via M2
        assert "Tom" not in partners(vectors, "Alice")

    def test_vectors_read_only(self, toy_graph, toy_catalog):
        vectors, _ = build_index(toy_graph, toy_catalog)
        compiled = vectors.compile()
        with pytest.raises(ValueError):
            compiled.pair_data[0] = 99.0
        with pytest.raises(ValueError):
            compiled.node_data[0] = 99.0

    def test_incremental_build(self, toy_graph, toy_catalog):
        vectors, index = build_index(toy_graph, toy_catalog, mg_ids=[0, 1])
        assert vectors.matched_ids == frozenset({0, 1})
        build_index(
            toy_graph, toy_catalog, mg_ids=[2, 3], vectors=vectors, index=index
        )
        assert vectors.matched_ids == frozenset({0, 1, 2, 3})

    def test_duplicate_add_rejected(self, toy_graph, toy_catalog):
        vectors, index = build_index(toy_graph, toy_catalog, mg_ids=[0])
        from repro.index.instance_index import MetagraphCounts

        with pytest.raises(CatalogMismatchError):
            vectors.add_counts(0, MetagraphCounts())

    def test_build_skips_already_matched(self, toy_graph, toy_catalog):
        vectors, index = build_index(toy_graph, toy_catalog, mg_ids=[0])
        # passing id 0 again must be a no-op, not an error or a re-match
        matched = []
        build_index(
            toy_graph, toy_catalog, mg_ids=[1, 0], vectors=vectors, index=index,
            on_metagraph=lambda mg_id, _sec: matched.append(mg_id),
        )
        assert matched == [1]
        assert vectors.matched_ids == frozenset({0, 1})

    def test_on_metagraph_callback(self, toy_graph, toy_catalog):
        timings = {}
        build_index(
            toy_graph,
            toy_catalog,
            on_metagraph=lambda mg_id, sec: timings.__setitem__(mg_id, sec),
        )
        assert set(timings) == set(range(4))
        assert all(t >= 0 for t in timings.values())

    def test_transform_applied(self, toy_graph, toy_catalog, toy_metagraphs):
        vectors, _ = build_index(toy_graph, toy_catalog, transform=log1p)
        m3_id = toy_catalog.id_of(toy_metagraphs["M3"])
        assert pair_vector(vectors, "Alice", "Bob")[m3_id] == pytest.approx(
            np.log1p(1)
        )


class TestTransforms:
    def test_zero_preserved(self):
        for t in (identity, log1p, sqrt):
            assert t(0) == 0.0

    def test_monotone(self):
        for t in (identity, log1p, sqrt):
            assert t(5) > t(2) > t(0)

    def test_lookup(self):
        assert get_transform("log1p") is log1p
        with pytest.raises(KeyError):
            get_transform("cube")
