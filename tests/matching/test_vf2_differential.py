"""Differential testing against networkx VF2 as an independent oracle.

networkx's ``GraphMatcher.subgraph_isomorphisms_iter`` enumerates
*induced* subgraph isomorphisms — exactly Def. 2's semantics — in a
completely independent implementation.  Agreement across random graphs
and patterns is the strongest correctness evidence we can get without
the authors' code.  On kinded graphs (labelled and directed edges) the
oracle is ``DiGraphMatcher`` over both arcs of every edge, each arc
carrying its oriented ``(label, rel)`` signature, with a type node
match and a signature edge match.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import (
    DiGraphMatcher,
    GraphMatcher,
    categorical_node_match,
)

from repro.datasets import load_dataset
from repro.experiments import QUICK_CONFIG
from repro.graph.csr import csr_view
from repro.graph.io import to_networkx
from repro.matching import ALL_ENGINES, find_instances
from repro.matching.compiled import compiled_order, embedding_matrix
from repro.matching.ordering import random_connected_order
from repro.matching.plan import MatchPlan
from repro.metagraph.symmetry import automorphisms
from repro.mining.enumerate import enumerate_patterns
from repro.mining.grami import GramiMiner
from tests.conftest import random_typed_graph
from tests.metagraph.test_canonical_symmetry import random_metagraph
from tests.mining.test_mni_oracle import drawn_pattern, random_graph
from tests.oracles import as_digraph


def vf2_instances(graph, metagraph) -> set[frozenset]:
    """Instance node-sets per networkx VF2 (induced, type-matched)."""
    host = to_networkx(graph)
    pattern = nx.Graph()
    for u in metagraph.nodes():
        pattern.add_node(u, type=metagraph.node_type(u))
    pattern.add_edges_from(metagraph.edges)
    matcher = GraphMatcher(
        host, pattern, node_match=categorical_node_match("type", None)
    )
    # VF2 maps host-subgraph -> pattern; instances are the host node sets
    return {
        frozenset(mapping) for mapping in matcher.subgraph_isomorphisms_iter()
    }


class TestVF2Agreement:
    @given(st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_all_engines_match_vf2(self, seed):
        rng = random.Random(seed)
        graph = random_typed_graph(seed, num_users=8, num_attrs_per_type=3)
        metagraph = random_metagraph(rng, max_nodes=4)
        oracle = vf2_instances(graph, metagraph)
        for name, factory in ALL_ENGINES.items():
            found = {
                inst.nodes
                for inst in find_instances(factory(), graph, metagraph)
            }
            assert found == oracle, f"{name} disagrees with networkx VF2"

    def test_toy_graph_vf2(self, toy_graph, toy_metagraphs):
        for mg in toy_metagraphs.values():
            oracle = vf2_instances(toy_graph, mg)
            found = {
                inst.nodes
                for inst in find_instances(ALL_ENGINES["SymISO"](), toy_graph, mg)
            }
            assert found == oracle

    @pytest.mark.parametrize("seed", [11, 42, 99])
    def test_five_node_patterns_vf2(self, seed):
        rng = random.Random(seed)
        graph = random_typed_graph(seed, num_users=7, num_attrs_per_type=2)
        metagraph = random_metagraph(rng, max_nodes=5)
        oracle = vf2_instances(graph, metagraph)
        found = {
            inst.nodes
            for inst in find_instances(ALL_ENGINES["SymISO"](), graph, metagraph)
        }
        assert found == oracle


def kinded_vf2_embeddings(graph, metagraph) -> set[tuple]:
    """Induced, type- and signature-matched embeddings per networkx, as
    tuples of graph nodes indexed by pattern node."""
    host = as_digraph(graph.nodes(), graph.node_type, graph.edges(), graph.edge_signature)
    pattern = as_digraph(
        metagraph.nodes(), metagraph.node_type, sorted(metagraph.edges), metagraph.edge_signature
    )
    matcher = DiGraphMatcher(
        host,
        pattern,
        node_match=lambda a, b: a["type"] == b["type"],
        edge_match=lambda a, b: a["sig"] == b["sig"],
    )
    embeddings = set()
    for mapping in matcher.subgraph_isomorphisms_iter():
        image = {u: node for node, u in mapping.items()}
        embeddings.add(tuple(image[u] for u in metagraph.nodes()))
    return embeddings


def assert_kinded_agreement(graph, metagraph, rng) -> None:
    """Every engine and the kernel's broken and unbroken plans agree
    with the kinded networkx oracle."""
    oracle = kinded_vf2_embeddings(graph, metagraph)
    instances = {frozenset(embedding) for embedding in oracle}
    csr = csr_view(graph)
    node_ids = csr.node_ids
    for order in (compiled_order(csr, metagraph), random_connected_order(metagraph, rng)):
        unbroken = embedding_matrix(
            csr, MatchPlan(metagraph, order, induced=True, fixed=None)
        ).tolist()
        assert len(unbroken) == len(oracle), metagraph
        assert {tuple(node_ids[v] for v in row) for row in unbroken} == oracle, metagraph
        broken = embedding_matrix(
            csr, MatchPlan(metagraph, order, induced=True, fixed=())
        ).tolist()
        kept = [tuple(node_ids[v] for v in row) for row in broken]
        assert set(kept) <= oracle, metagraph
        assert len(kept) * len(automorphisms(metagraph)) == len(oracle), metagraph
        assert {frozenset(row) for row in kept} == instances, metagraph
    for name, factory in ALL_ENGINES.items():
        found = {inst.nodes for inst in find_instances(factory(), graph, metagraph)}
        assert found == instances, f"{name} disagrees with networkx on {metagraph!r}"


class TestKindedVF2Agreement:
    def test_reactions_mined_patterns(self):
        graph = load_dataset("reactions", scale=QUICK_CONFIG.scale).graph
        assert graph.has_kinds
        patterns = GramiMiner(QUICK_CONFIG.miner_config("reactions")).mine(graph).patterns
        assert any(mg.has_kinds for mg in patterns)
        rng = random.Random(0)
        for metagraph in patterns:
            assert_kinded_agreement(graph, metagraph, rng)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_kinded_graphs(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, kinded=True)
        if graph.num_edges == 0:
            return
        enumerated = enumerate_patterns(graph.observed_edge_rules(), max_nodes=3)
        patterns = rng.sample(enumerated, min(len(enumerated), 4))
        patterns += [drawn_pattern(rng, graph) for _ in range(4)]
        for metagraph in filter(None, patterns):
            assert_kinded_agreement(graph, metagraph, rng)
