"""Compiled-engine specifics the generic engine suites don't reach:
pinned/localized matrices, the symmetry cut, and the embedding-matrix
entry point."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MatchingError
from repro.graph.csr import csr_view
from repro.graph.typed_graph import EdgeKind
from repro.matching import (
    CompiledMatcher,
    QuickSIMatcher,
    SymISOMatcher,
    deduplicate_instances,
    find_instances,
)
from repro.matching.compiled import (
    compiled_embedding_matrix,
    compiled_order,
    compiled_pinned_matrix,
)
from repro.metagraph.metagraph import Metagraph, metapath
from repro.metagraph.symmetry import automorphisms, tuple_orbits
from tests.conftest import random_typed_graph
from tests.matching.test_cross_matcher_parity import random_pattern
from tests.matching.test_labeled_parity import random_kinded_graph, random_kinded_pattern
from tests.oracles import pinned_embeddings

SEEDS = st.integers(min_value=0, max_value=10_000)


def decoded_rows(graph, matrix) -> list[list]:
    """The rows of a dense-id embedding matrix, in original node ids."""
    node_ids = csr_view(graph).node_ids
    return [[node_ids[v] for v in row] for row in matrix.tolist()]


def decoded_instances(graph, matrix) -> set[frozenset]:
    """The instance node sets of a dense-id embedding matrix."""
    return {frozenset(row) for row in decoded_rows(graph, matrix)}


def reference_instances(graph, metagraph, pins, region=None) -> set[frozenset]:
    return {
        inst.nodes
        for inst in deduplicate_instances(
            pinned_embeddings(graph, metagraph, pins, region=region)
        )
    }


class TestPinnedParity:
    """Compiled pinned matrices == pure-Python pinned streams, instance-wise."""

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
        matrix = compiled_pinned_matrix(graph, metagraph, pins)
        assert matrix.shape[1] == metagraph.size
        assert decoded_instances(graph, matrix) == reference_instances(
            graph, metagraph, pins
        )

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
        matrix = compiled_pinned_matrix(graph, metagraph, pins, region=region)
        assert decoded_instances(graph, matrix) == reference_instances(
            graph, metagraph, pins, region=region
        )

    def test_pinned_columns_are_pattern_nodes(self, toy_graph):
        m = metapath("user", "school", "user")
        matrix = compiled_pinned_matrix(toy_graph, m, {2: "Kate"})
        node_ids = csr_view(toy_graph).node_ids
        assert matrix.shape[0] > 0
        assert {node_ids[v] for v in matrix[:, 2].tolist()} == {"Kate"}
        for v in matrix[:, 1].tolist():
            assert toy_graph.node_type(node_ids[v]) == "school"

    def test_empty_pins_raise_eagerly(self, toy_graph):
        with pytest.raises(MatchingError, match="at least one pin"):
            compiled_pinned_matrix(toy_graph, metapath("user"), {})

    @pytest.mark.parametrize("pattern_node", [3, 7, -1])
    def test_pin_outside_pattern_raises(self, toy_graph, pattern_node):
        m = metapath("user", "school", "user")
        with pytest.raises(MatchingError, match="outside pattern 0..2"):
            compiled_pinned_matrix(toy_graph, m, {pattern_node: "Kate"})

    def test_pin_outside_pattern_raises_beside_a_valid_pin(self, toy_graph):
        m = metapath("user", "school", "user")
        with pytest.raises(MatchingError, match="outside pattern"):
            compiled_pinned_matrix(toy_graph, m, {0: "Kate", -1: "Jay"})

    def test_wrong_type_pin_yields_nothing(self, toy_graph):
        m = metapath("user", "school", "user")
        assert compiled_pinned_matrix(toy_graph, m, {0: "College A"}).shape == (0, 3)

    def test_absent_pin_yields_nothing(self, toy_graph):
        m = metapath("user", "school", "user")
        assert compiled_pinned_matrix(toy_graph, m, {0: "Nobody"}).shape == (0, 3)


def pin_cases(graph, metagraph, rng) -> list[tuple[tuple, tuple, bool | None]]:
    """``(graph ends, their types, adjacency)``: a node, an edge and a
    non-edge, drawn from one instance when the pattern has any."""
    rows = decoded_rows(graph, compiled_embedding_matrix(csr_view(graph), metagraph))
    nodes = rng.choice(rows) if rows else sorted(graph.nodes(), key=repr)
    node = rng.choice(nodes)
    cases: list[tuple[tuple, tuple, bool | None]] = [((node,), (graph.node_type(node),), None)]
    for adjacent in (True, False):
        pairs = [
            (u, v) for u in nodes for v in nodes if u != v and graph.has_edge(u, v) == adjacent
        ]
        if pairs:
            u, v = rng.choice(pairs)
            cases.append(((u, v), (graph.node_type(u), graph.node_type(v)), adjacent))
    return cases


LIKES, CITES = EdgeKind("likes", False), EdgeKind("cites", True)
SYMMETRIC_PATTERNS = (
    metapath("user", "school", "user"),
    Metagraph(["school", "user", "user", "user"], [(0, 1), (0, 2), (0, 3)]),
    Metagraph(["user"] * 3, [(0, 1), (0, 2), (1, 2)]),
    Metagraph(["user"] * 4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    Metagraph(["user", "school", "hobby", "user"], [(0, 1), (0, 2), (3, 1), (3, 2)]),
)
KINDED_SYMMETRIC_PATTERNS = (
    Metagraph(["user", "school", "user"], [(0, 1, LIKES), (2, 1, LIKES)]),
    Metagraph(["user", "school", "user"], [(0, 1, CITES), (2, 1, CITES)]),
    Metagraph(["hobby", "user", "user", "user"], [(1, 0, CITES), (2, 0, CITES), (3, 0, CITES)]),
)


def assert_one_row_per_instance(graph, metagraph, rng, region_radius) -> None:
    """Orbit representatives: no repeated instance, the instances of
    every admissible pin set, and rows x |orbit| x |Stab| = the unbroken
    rows summed over the orbit."""
    from repro.index.delta import affected_region

    group = automorphisms(metagraph)
    for ends, types, adjacent in pin_cases(graph, metagraph, rng):
        region = affected_region(graph, ends, region_radius) if region_radius else None
        instances: list[frozenset] = []
        for orbit in tuple_orbits(metagraph, types, adjacent):
            pins = dict(zip(orbit[0], ends))
            matrix = compiled_pinned_matrix(graph, metagraph, pins, region)
            instances.extend(frozenset(row) for row in decoded_rows(graph, matrix))
            stabiliser = sum(all(s[p] == p for p in orbit[0]) for s in group)
            unbroken = sum(
                1
                for member in orbit
                for _ in pinned_embeddings(graph, metagraph, dict(zip(member, ends)), region)
            )
            assert matrix.shape[0] * len(orbit) * stabiliser == unbroken, (metagraph, pins)
        assert len(set(instances)) == len(instances), (metagraph, ends)
        admissible = [
            dict(zip(nodes, ends))
            for nodes in product(*(metagraph.nodes_of_type(t) for t in types))
            if len(set(nodes)) == len(nodes)
            and (adjacent is None or metagraph.has_edge(*nodes) == adjacent)
        ]
        reference = set().union(
            *(reference_instances(graph, metagraph, pins, region) for pins in admissible)
        )
        assert set(instances) == reference, (metagraph, ends)


class TestOrbitPinnedRows:
    """The delta path's contract with the counter: pinning one
    representative per Aut(M)-orbit of pattern nodes (or admissible
    ordered pairs) yields one row per instance, and together the
    representatives reach every instance some admissible pin set does."""

    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_random_plain_patterns(self, seed):
        rng = random.Random(seed)
        graph = random_typed_graph(seed, num_users=7, num_attrs_per_type=3)
        for metagraph in (random_pattern(rng), rng.choice(SYMMETRIC_PATTERNS)):
            assert_one_row_per_instance(graph, metagraph, rng, seed % 3)

    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_random_kinded_patterns(self, seed):
        rng = random.Random(seed)
        graph = random_kinded_graph(seed)
        patterns = SYMMETRIC_PATTERNS + KINDED_SYMMETRIC_PATTERNS
        for metagraph in (random_kinded_pattern(rng), rng.choice(patterns)):
            assert_one_row_per_instance(graph, metagraph, rng, seed % 3)


class TestSymmetryCut:
    def test_square_enumerates_one_embedding_per_instance(self, toy_graph, toy_metagraphs):
        """The cut skips the sigma-image of every kept embedding."""
        m1 = toy_metagraphs["M1"]
        compiled = sum(1 for _ in CompiledMatcher().find_embeddings(toy_graph, m1))
        plain = sum(
            1 for _ in QuickSIMatcher().find_embeddings(toy_graph, m1)
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
