"""Compiled-engine specifics the generic engine suites don't reach:
pinned/localized streams, the symmetry cut, and the embedding-matrix
entry point."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MatchingError
from repro.graph.csr import csr_view
from repro.matching import (
    CompiledMatcher,
    MATCHERS,
    SymISOMatcher,
    compiled_pinned_embeddings,
    deduplicate_instances,
    find_instances,
    make_matcher,
)
from repro.matching.compiled import compiled_embedding_matrix, compiled_order
from repro.matching.partition import pinned_embeddings
from repro.metagraph.metagraph import Metagraph, metapath
from tests.conftest import random_typed_graph
from tests.matching.test_cross_matcher_parity import random_pattern

SEEDS = st.integers(min_value=0, max_value=10_000)


class TestMakeMatcher:
    def test_every_registered_name_instantiates(self):
        for name in MATCHERS:
            engine = make_matcher(name)
            assert hasattr(engine, "find_embeddings")

    def test_default_registry_contains_compiled(self):
        assert isinstance(make_matcher("compiled"), CompiledMatcher)
        assert make_matcher("COMPILED").name == "Compiled"  # case-insensitive

    def test_unknown_name_raises(self):
        with pytest.raises(MatchingError, match="unknown matcher"):
            make_matcher("vf17")


class TestPinnedParity:
    """Compiled pinned streams == pure-Python pinned streams, instance-wise."""

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_pinned_instances_match_reference(self, seed):
        rng = random.Random(seed)
        graph = random_typed_graph(seed, num_users=7, num_attrs_per_type=3)
        metagraph = random_pattern(rng)
        users = sorted(graph.nodes_of_type("user"), key=repr)
        anchors = metagraph.nodes_of_type("user")
        if not users or not anchors:
            return
        pins = {anchors[0]: rng.choice(users)}
        reference = {
            inst.nodes
            for inst in deduplicate_instances(
                pinned_embeddings(graph, metagraph, pins)
            )
        }
        compiled = {
            inst.nodes
            for inst in deduplicate_instances(
                compiled_pinned_embeddings(graph, metagraph, pins)
            )
        }
        assert compiled == reference

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_region_restricted_pins_match_reference(self, seed):
        from repro.index.delta import affected_region

        rng = random.Random(seed)
        graph = random_typed_graph(seed, num_users=7, num_attrs_per_type=3)
        metagraph = random_pattern(rng)
        users = sorted(graph.nodes_of_type("user"), key=repr)
        anchors = metagraph.nodes_of_type("user")
        if not users or not anchors:
            return
        pin_node = rng.choice(users)
        region = affected_region(graph, [pin_node], radius=2)
        pins = {anchors[0]: pin_node}
        reference = {
            inst.nodes
            for inst in deduplicate_instances(
                pinned_embeddings(graph, metagraph, pins, region=region)
            )
        }
        compiled = {
            inst.nodes
            for inst in deduplicate_instances(
                compiled_pinned_embeddings(graph, metagraph, pins, region=region)
            )
        }
        assert compiled == reference

    def test_empty_pins_raise_eagerly(self, toy_graph):
        with pytest.raises(MatchingError, match="at least one pin"):
            compiled_pinned_embeddings(toy_graph, metapath("user"), {})

    def test_wrong_type_pin_yields_nothing(self, toy_graph):
        m = metapath("user", "school", "user")
        assert list(compiled_pinned_embeddings(toy_graph, m, {0: "College A"})) == []

    def test_absent_pin_yields_nothing(self, toy_graph):
        m = metapath("user", "school", "user")
        assert list(compiled_pinned_embeddings(toy_graph, m, {0: "Nobody"})) == []


class TestSymmetryCut:
    def test_square_enumerates_one_embedding_per_instance(self, toy_graph, toy_metagraphs):
        """The cut skips the sigma-image of every kept embedding."""
        m1 = toy_metagraphs["M1"]
        compiled = sum(1 for _ in CompiledMatcher().find_embeddings(toy_graph, m1))
        plain = sum(
            1 for _ in MATCHERS["quicksi"]().find_embeddings(toy_graph, m1)
        )
        assert compiled == 2  # one per instance
        assert plain == 4  # |Aut(M1)| = 2 embeddings per instance

    def test_asymmetric_pattern_has_no_cut(self, toy_graph):
        m = metapath("user", "school", "major")
        compiled = {
            inst.nodes for inst in find_instances(CompiledMatcher(), toy_graph, m)
        }
        reference = {
            inst.nodes for inst in find_instances(SymISOMatcher(), toy_graph, m)
        }
        assert compiled == reference


class TestEmbeddingMatrix:
    def test_matrix_columns_are_pattern_nodes(self, toy_graph, toy_metagraphs):
        m3 = toy_metagraphs["M3"]  # user-address-user metapath
        csr = csr_view(toy_graph)
        matrix = compiled_embedding_matrix(csr, m3)
        assert matrix.shape[1] == m3.size
        decoded = {
            frozenset(csr.node_ids[v] for v in row) for row in matrix.tolist()
        }
        assert decoded == {
            inst.nodes for inst in find_instances(SymISOMatcher(), toy_graph, m3)
        }
        # column 1 is the address position of every embedding
        for row in matrix.tolist():
            assert toy_graph.node_type(csr.node_ids[row[1]]) == "address"

    def test_no_match_returns_empty_matrix(self, toy_graph):
        csr = csr_view(toy_graph)
        m = metapath("user", "planet", "user")
        matrix = compiled_embedding_matrix(csr, m)
        assert matrix.shape == (0, 3)

    def test_single_node_pattern(self, toy_graph):
        csr = csr_view(toy_graph)
        matrix = compiled_embedding_matrix(csr, metapath("user"))
        assert matrix.shape == (5, 1)

    def test_order_is_connected(self, toy_graph, toy_metagraphs):
        csr = csr_view(toy_graph)
        for m in toy_metagraphs.values():
            order = compiled_order(csr, m)
            assert sorted(order) == list(range(m.size))
            bound: set[int] = set()
            for u in order:
                assert not bound or m.neighbors(u) & bound
                bound.add(u)


class TestWorkerStyleCSRBinding:
    def test_matcher_bound_to_shipped_csr_needs_no_graph(self, toy_graph, toy_metagraphs):
        import pickle

        shipped = pickle.loads(pickle.dumps(csr_view(toy_graph)))
        matcher = CompiledMatcher(csr=shipped)
        instances = {
            inst.nodes
            for inst in deduplicate_instances(
                matcher.find_embeddings(None, toy_metagraphs["M1"])
            )
        }
        reference = {
            inst.nodes
            for inst in find_instances(SymISOMatcher(), toy_graph, toy_metagraphs["M1"])
        }
        assert instances == reference
