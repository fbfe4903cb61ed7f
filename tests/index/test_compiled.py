"""Tests for the compiled CSR serving backend (CompiledVectors)."""

import numpy as np
import pytest

from repro.exceptions import CatalogMismatchError
from repro.index.compiled import CompiledVectors
from repro.index.instance_index import _pair_key
from repro.index.transform import log1p
from repro.index.vectors import MetagraphVectors, build_vectors
from repro.metagraph.catalog import MetagraphCatalog
from tests.conftest import random_typed_graph
from tests.oracles import node_vector, pair_vector, partners


@pytest.fixture
def toy_compiled(toy_graph, toy_metagraphs):
    catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
    vectors, _ = build_vectors(toy_graph, catalog)
    return vectors, vectors.compile()


class TestStructure:
    def test_nodes_sorted_by_repr(self, toy_compiled):
        _vectors, compiled = toy_compiled
        assert list(compiled.nodes) == sorted(compiled.nodes, key=repr)

    def test_positions_roundtrip(self, toy_compiled):
        _vectors, compiled = toy_compiled
        for i, node in enumerate(compiled.nodes):
            assert compiled.position(node) == i
        assert compiled.position("nobody") is None

    def test_indptr_monotone(self, toy_compiled):
        _vectors, compiled = toy_compiled
        for indptr in (compiled.node_indptr, compiled.pair_indptr, compiled.pair_ptr):
            assert indptr[0] == 0
            assert np.all(np.diff(indptr) >= 0)
        assert compiled.node_indptr[-1] == len(compiled.node_data)
        assert compiled.pair_indptr[-1] == len(compiled.pair_data)
        assert compiled.pair_ptr[-1] == len(compiled.partner_pos)

    def test_arrays_read_only(self, toy_compiled):
        _vectors, compiled = toy_compiled
        with pytest.raises(ValueError):
            compiled.node_data[0] = 99.0

    def test_dense_node_rows_match_store(self, toy_compiled):
        vectors, compiled = toy_compiled
        for i, node in enumerate(compiled.nodes):
            assert np.array_equal(
                compiled.node_vector_dense(i), node_vector(vectors, node)
            )

    def test_adjacency_matches_partners(self, toy_compiled):
        vectors, compiled = toy_compiled
        for i, node in enumerate(compiled.nodes):
            positions, pair_rows = compiled.candidates_of(i)
            adjacent = {compiled.nodes[p] for p in positions}
            assert adjacent == partners(vectors, node)
            # each entry's pair row reconstructs the store's m_xy
            for p, row in zip(positions, pair_rows):
                assert np.array_equal(
                    compiled.pair_vector_dense(int(row)),
                    pair_vector(vectors, node, compiled.nodes[p]),
                )

    def test_partner_positions_ascending(self, toy_compiled):
        _vectors, compiled = toy_compiled
        for i in range(compiled.num_nodes):
            positions, _rows = compiled.candidates_of(i)
            assert np.all(np.diff(positions) > 0)


class TestDotProducts:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_node_and_pair_dots_match_dense(self, seed):
        from repro.metagraph.metagraph import metapath

        graph = random_typed_graph(seed)
        catalog = MetagraphCatalog(
            [metapath("user", t, "user", name=t) for t in ("school", "hobby")],
            anchor_type="user",
        )
        vectors, _ = build_vectors(graph, catalog)
        compiled = vectors.compile()
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 2.0, size=len(catalog))
        node_dots = compiled.node_dot_products(w)
        for i, node in enumerate(compiled.nodes):
            assert node_dots[i] == pytest.approx(
                float(node_vector(vectors, node) @ w), abs=1e-12
            )
        pair_dots = compiled.pair_dot_products(w)
        for i, node in enumerate(compiled.nodes):
            positions, rows = compiled.candidates_of(i)
            for p, row in zip(positions, rows):
                expected = float(pair_vector(vectors, node, compiled.nodes[p]) @ w)
                assert pair_dots[row] == pytest.approx(expected, abs=1e-12)

    def test_transform_applied(self, toy_graph, toy_metagraphs):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_vectors(toy_graph, catalog, transform=log1p)
        compiled = vectors.compile()
        for i, node in enumerate(compiled.nodes):
            assert np.array_equal(
                compiled.node_vector_dense(i), node_vector(vectors, node)
            )


class TestLifecycle:
    def test_compile_is_cached(self, toy_compiled):
        vectors, compiled = toy_compiled
        assert vectors.compile() is compiled

    def test_add_counts_invalidates(self, toy_graph, toy_metagraphs):
        from repro.index.instance_index import match_and_count

        mgs = list(toy_metagraphs.values())
        catalog = MetagraphCatalog(mgs, anchor_type="user")
        vectors = MetagraphVectors(len(catalog), anchor_type="user")
        vectors.add_counts(0, match_and_count(toy_graph, mgs[0]))
        first = vectors.compile()
        vectors.add_counts(1, match_and_count(toy_graph, mgs[1]))
        second = vectors.compile()
        assert second is not first
        assert second.nnz >= first.nnz

    def test_empty_store_compiles(self):
        vectors = MetagraphVectors(3, anchor_type="user")
        compiled = vectors.compile()
        assert compiled.num_nodes == 0
        assert compiled.num_pairs == 0
        assert len(compiled.node_dot_products(np.ones(3))) == 0

    def test_load_roundtrip_compiles_identically(
        self, tmp_path, toy_compiled, toy_metagraphs
    ):
        from repro.index.persist import load_index, save_index

        vectors, compiled = toy_compiled
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        save_index(tmp_path / "snapshot", vectors, catalog)
        # recompile from the restored count ledger, not the loaded view
        reloaded = load_index(tmp_path / "snapshot", mmap=False).vectors
        recompiled = reloaded.compile()
        assert recompiled.nodes == compiled.nodes
        assert np.array_equal(recompiled.node_data, compiled.node_data)
        assert np.array_equal(recompiled.pair_data, compiled.pair_data)
        assert np.array_equal(recompiled.partner_pos, compiled.partner_pos)

    def test_inconsistent_pair_without_node_raises(self):
        with pytest.raises(CatalogMismatchError):
            CompiledVectors.build(
                node_counts={"a": {0: 1}},
                pair_counts={_pair_key("a", "ghost"): {0: 1}},
                catalog_size=1,
            )
