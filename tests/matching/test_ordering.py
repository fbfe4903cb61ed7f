"""Tests for matching-order heuristics (Sect. IV-C ordering)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import DATASET_GENERATORS, load_dataset
from repro.exceptions import MatchingError
from repro.graph.csr import csr_view
from repro.matching.ordering import (
    component_order_from_node_order,
    connected_order_from,
    estimated_cost_order,
    random_connected_order,
    rarest_type_order,
)
from repro.metagraph.decomposition import decompose
from repro.metagraph.metagraph import Metagraph, metapath
from repro.experiments.config import ExperimentConfig
from repro.mining.grami import GramiMiner
from tests.conftest import random_typed_graph
from tests.metagraph.test_canonical_symmetry import random_metagraph
from tests.oracles import GraphCardinalities


def cost_order(graph, metagraph):
    return estimated_cost_order(metagraph, csr_view(graph))


def connected_prefixes(metagraph, order) -> bool:
    """Every prefix of the order must induce a connected sub-pattern."""
    placed = set()
    for i, u in enumerate(order):
        if i > 0 and not (metagraph.neighbors(u) & placed):
            return False
        placed.add(u)
    return True


class TestCardinalities:
    def test_edge_counts(self, toy_graph):
        counts = GraphCardinalities(toy_graph).edge_counts
        assert counts[("school", "user")] == 4
        assert counts[("address", "user")] == 4
        assert sum(counts.values()) == toy_graph.num_edges

    def test_node_counts(self, toy_graph):
        stats = GraphCardinalities(toy_graph)
        assert stats.nodes_of("user") == 5
        assert stats.nodes_of("unknown") == 0
        assert stats.edges_of("user", "school") == 4
        assert stats.edges_of("school", "user") == 4


    @pytest.mark.parametrize("name", sorted(DATASET_GENERATORS))
    def test_cost_orders_match_edge_rescan_on_every_catalog(self, name):
        # every mined pattern of the tiny scale (a superset of the
        # catalog) orders the same off the CSR layout's totals as off
        # a rescan of the graph's edges
        graph = load_dataset(name, scale="tiny").graph
        config = ExperimentConfig(scale="tiny").miner_config(name)
        patterns = GramiMiner(config).mine(graph).patterns
        assert patterns
        stats = csr_view(graph)
        reference = GraphCardinalities(graph)
        for mg in patterns:
            assert estimated_cost_order(mg, stats) == estimated_cost_order(
                mg, reference
            ), mg


class TestEstimatedCostOrder:
    def test_permutation(self, toy_graph, toy_metagraphs):
        for mg in toy_metagraphs.values():
            order = cost_order(toy_graph, mg)
            assert sorted(order) == list(range(mg.size))

    def test_connected_prefixes(self, toy_graph, toy_metagraphs):
        for mg in toy_metagraphs.values():
            order = cost_order(toy_graph, mg)
            assert connected_prefixes(mg, order)

    def test_starts_with_cheapest_edge(self, toy_graph):
        # employer-user (2 edges) is rarer than school-user (4)
        mg = Metagraph(
            ["user", "school", "employer", "user"],
            [(0, 1), (0, 2), (3, 1), (3, 2)],
        )
        order = cost_order(toy_graph, mg)
        first_two = {order[0], order[1]}
        assert 2 in first_two  # the employer node is bound early

    def test_single_node(self, toy_graph):
        assert cost_order(toy_graph, metapath("user")) == [0]

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_random_inputs_connected(self, seed):
        rng = random.Random(seed)
        graph = random_typed_graph(seed, num_users=6, num_attrs_per_type=2)
        mg = random_metagraph(rng, max_nodes=5)
        order = cost_order(graph, mg)
        assert sorted(order) == list(range(mg.size))
        assert connected_prefixes(mg, order)


class TestRarestTypeOrder:
    def test_permutation_and_connectivity(self, toy_graph, toy_metagraphs):
        for mg in toy_metagraphs.values():
            order = rarest_type_order(toy_graph, mg)
            assert sorted(order) == list(range(mg.size))
            assert connected_prefixes(mg, order)

    def test_rarest_first(self, toy_graph):
        # surname has 1 node, user has 5: surname bound first
        mg = metapath("user", "surname", "user")
        assert rarest_type_order(toy_graph, mg)[0] == 1


class TestConnectedOrderFrom:
    def test_root_bound_first(self, toy_graph, toy_metagraphs):
        for mg in toy_metagraphs.values():
            for root in mg.nodes():
                order = connected_order_from(toy_graph, mg, root)
                assert order[0] == root
                assert sorted(order) == list(range(mg.size))
                assert connected_prefixes(mg, order)

    @pytest.mark.parametrize("root", [-1, 3])
    def test_root_outside_pattern_rejected(self, toy_graph, root):
        with pytest.raises(MatchingError, match="outside pattern"):
            connected_order_from(toy_graph, metapath("user", "school", "user"), root)


class TestRandomOrder:
    def test_seeded_determinism(self, toy_metagraphs):
        m1 = toy_metagraphs["M1"]
        a = random_connected_order(m1, random.Random(5))
        b = random_connected_order(m1, random.Random(5))
        assert a == b

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_connected_prefixes_random(self, seed):
        rng = random.Random(seed)
        mg = random_metagraph(rng, max_nodes=5)
        order = random_connected_order(mg, rng)
        assert sorted(order) == list(range(mg.size))
        assert connected_prefixes(mg, order)


class TestComponentOrder:
    def test_follows_first_node_appearance(self, toy_metagraphs):
        m3 = toy_metagraphs["M3"]  # user-address-user
        decomp = decompose(m3)
        node_order = [1, 0, 2]  # address first
        comp_order = component_order_from_node_order(node_order, decomp.components)
        first_comp = decomp.components[comp_order[0]]
        assert first_comp == (1,)

    def test_all_components_ordered(self, toy_metagraphs):
        for mg in toy_metagraphs.values():
            decomp = decompose(mg)
            order = component_order_from_node_order(
                list(range(mg.size)), decomp.components
            )
            assert sorted(order) == list(range(len(decomp.components)))
