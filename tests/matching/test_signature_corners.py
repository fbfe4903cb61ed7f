"""Edge-signature corners of the one CSR layout, against the backtracker.

A graph without edge kinds has the one signature ``("", 0)`` and an
edgeless graph none, so these cases reach the kernel and the profile
filter through the same code as every kinded search.  Each runs on the
compiled kernel (:class:`CompiledMatcher`, :func:`compiled_pinned_matrix`)
and on TurboISO's :func:`candidate_regions`, and is checked against the
dict-of-set :func:`backtrack_embeddings`:

- a kinded pattern on a plain graph matches nothing;
- a plain pattern on a kinded graph matches only plain-edge instances;
- on an edgeless graph a single-node pattern matches its whole type and
  a pattern with edges matches nothing.
"""

from __future__ import annotations

import pytest

from repro.graph.typed_graph import EdgeKind, TypedGraph
from repro.matching import CompiledMatcher, backtrack_embeddings, deduplicate_instances
from repro.matching.compiled import compiled_pinned_matrix
from repro.matching.plan import MatchPlan
from repro.matching.turboiso import candidate_regions
from repro.metagraph.metagraph import Metagraph, metapath
from tests.conftest import build_toy_graph
from tests.matching.test_compiled_matcher import decoded_instances, reference_instances

IN = EdgeKind("in", True)
TAG = EdgeKind("tag", False)


def oracle_instances(graph, metagraph) -> set[frozenset]:
    """Instance node sets of the unbroken, induced backtracker."""
    plan = MatchPlan(metagraph, list(metagraph.nodes()), induced=True, fixed=None)
    return {inst.nodes for inst in deduplicate_instances(backtrack_embeddings(graph, plan))}


def kernel_instances(graph, metagraph) -> set[frozenset]:
    embeddings = list(CompiledMatcher().find_embeddings(graph, metagraph))
    instances = {inst.nodes for inst in deduplicate_instances(embeddings)}
    assert len(embeddings) == len(instances)  # one embedding per instance
    return instances


def assert_kernel_matches_oracle(graph, metagraph) -> set[frozenset]:
    """Full and pinned kernel runs equal the oracle; regions cover its images."""
    expected = oracle_instances(graph, metagraph)
    assert kernel_instances(graph, metagraph) == expected
    for u in metagraph.nodes():
        for node in sorted(graph.nodes_of_type(metagraph.node_type(u)), key=repr):
            pins = {u: node}
            got = decoded_instances(graph, compiled_pinned_matrix(graph, metagraph, pins))
            assert got == reference_instances(graph, metagraph, pins), (u, node)
    regions = candidate_regions(graph, metagraph)
    if expected:
        assert regions is not None
        plan = MatchPlan(metagraph, list(metagraph.nodes()), induced=True, fixed=None)
        for embedding in backtrack_embeddings(graph, plan):
            assert all(v in regions[u] for u, v in embedding.items())
    return expected


def mixed_graph() -> TypedGraph:
    """Molecules and reactions joined by plain, labeled and directed edges."""
    g = TypedGraph(name="mixed")
    for m in ("m1", "m2", "m3", "m4", "m5"):
        g.add_node(m, "mol")
    for r in ("r1", "r2"):
        g.add_node(r, "rxn")
    g.add_edge("m1", "r1", IN)
    g.add_edge("m2", "r1", IN)
    g.add_edge("m2", "r2")
    g.add_edge("m3", "r2")
    g.add_edge("m4", "r2", IN)
    g.add_edge("m5", "r1", IN)
    g.add_edge("m1", "m2", TAG)
    g.add_edge("m3", "m4")
    g.add_edge("m4", "m5", TAG)
    return g


def edgeless_graph() -> TypedGraph:
    g = TypedGraph(name="edgeless")
    for u in ("u1", "u2", "u3"):
        g.add_node(u, "user")
    for s in ("s1", "s2"):
        g.add_node(s, "school")
    return g


class TestKindedPatternOnPlainGraph:
    @pytest.mark.parametrize(
        "metagraph",
        [
            Metagraph(["user", "school"], [(0, 1, TAG)]),
            Metagraph(["user", "school", "user"], [(0, 1), (2, 1, IN)]),
        ],
        ids=["one-kinded-edge", "plain-and-kinded-edge"],
    )
    def test_no_rows_and_no_regions(self, metagraph):
        graph = build_toy_graph()
        assert assert_kernel_matches_oracle(graph, metagraph) == set()
        assert candidate_regions(graph, metagraph) is None


class TestPlainPatternOnKindedGraph:
    def test_only_plain_edge_instances(self):
        graph = mixed_graph()
        got = assert_kernel_matches_oracle(graph, metapath("mol", "rxn", "mol"))
        assert got == {frozenset({"m2", "r2", "m3"})}
        regions = candidate_regions(graph, metapath("mol", "rxn", "mol"))
        assert regions is not None
        # m1 reaches r1 only over a directed "in" edge
        assert "m1" not in regions[0] and "r1" not in regions[1]

    def test_plain_edge_between_one_type(self):
        graph = mixed_graph()
        got = assert_kernel_matches_oracle(graph, Metagraph(["mol", "mol"], [(0, 1)]))
        assert got == {frozenset({"m3", "m4"})}

    def test_kinded_edge_still_matches_its_own_signature(self):
        graph = mixed_graph()
        metagraph = Metagraph(["mol", "rxn", "mol"], [(0, 1, IN), (2, 1, IN)])
        got = assert_kernel_matches_oracle(graph, metagraph)
        # m1 and m2 share a "tag" edge, so their instance is not induced
        assert got == {frozenset({"m1", "r1", "m5"}), frozenset({"m2", "r1", "m5"})}


class TestEdgelessGraph:
    def test_single_node_pattern_matches_its_whole_type(self):
        graph = edgeless_graph()
        metagraph = Metagraph(["user"], [])
        got = assert_kernel_matches_oracle(graph, metagraph)
        assert got == {frozenset({u}) for u in ("u1", "u2", "u3")}
        assert candidate_regions(graph, metagraph) == {0: {"u1", "u2", "u3"}}

    @pytest.mark.parametrize(
        "metagraph",
        [metapath("user", "school"), metapath("user", "school", "user")],
        ids=["edge", "path"],
    )
    def test_patterns_with_edges_match_nothing(self, metagraph):
        graph = edgeless_graph()
        assert assert_kernel_matches_oracle(graph, metagraph) == set()
        assert candidate_regions(graph, metagraph) is None
