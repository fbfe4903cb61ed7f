"""MNI support against an external oracle: networkx monomorphisms.

``mni_support`` enumerates one embedding per orbit of Aut(M) and widens
each to its orbit's images.  This suite recomputes MNI from scratch
with networkx's VF2 ``subgraph_monomorphisms_iter`` (non-induced, as
GRAMI counts), with node types and edge signatures as match predicates,
on small random typed graphs, some carrying labeled and directed edges.
The threshold sits above every possible image count, so ``mni_support``
returns the exact value instead of short-circuiting.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import DiGraphMatcher

from repro.exceptions import InvalidMetagraphError
from repro.graph.typed_graph import PLAIN, EdgeKind, TypedGraph
from repro.metagraph.metagraph import Metagraph
from repro.mining.enumerate import enumerate_patterns
from repro.mining.grami import mni_support
from tests.oracles import as_digraph

KINDS = (PLAIN, EdgeKind("x", False), EdgeKind("d", True))


def random_graph(rng: random.Random, kinded: bool) -> TypedGraph:
    graph = TypedGraph(name="oracle")
    num_nodes = rng.randint(4, 8)
    for node in range(num_nodes):
        graph.add_node(node, rng.choice(("a", "a", "b")))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < 0.45:
                kind = rng.choice(KINDS) if kinded else PLAIN
                source, target = (u, v) if rng.random() < 0.5 else (v, u)
                graph.add_edge(source, target, kind)
    return graph


def drawn_pattern(rng: random.Random, graph: TypedGraph) -> Metagraph | None:
    """A connected pattern read off the graph: 2-4 nodes, some edges dropped."""
    start = rng.choice(sorted(node for node in graph.nodes() if graph.degree(node)))
    chosen = [start]
    size = rng.randint(2, 4)
    while len(chosen) < size:
        frontier = sorted(
            {v for u in chosen for v in graph.neighbors(u)} - set(chosen)
        )
        if not frontier:
            break
        chosen.append(rng.choice(frontier))
    position = {node: i for i, node in enumerate(chosen)}
    induced = [
        (position[u], position[v], kind)
        for u, v, kind in graph.edges_with_kinds()
        if u in position and v in position
    ]
    types = [graph.node_type(node) for node in chosen]
    thinned = [entry for entry in induced if rng.random() < 0.7]
    for entries in (thinned, induced):
        try:
            return Metagraph(types, entries)
        except InvalidMetagraphError:  # thinned apart, or a single node
            continue
    return None


def networkx_mni(graph: TypedGraph, pattern) -> int:
    host = as_digraph(graph.nodes(), graph.node_type, graph.edges(), graph.edge_signature)
    query = as_digraph(
        pattern.nodes(), pattern.node_type, sorted(pattern.edges), pattern.edge_signature
    )
    matcher = DiGraphMatcher(
        host,
        query,
        node_match=lambda a, b: a["type"] == b["type"],
        edge_match=lambda a, b: a["sig"] == b["sig"],
    )
    images: list[set] = [set() for _ in pattern.nodes()]
    for mapping in matcher.subgraph_monomorphisms_iter():
        for graph_node, pattern_node in mapping.items():
            images[pattern_node].add(graph_node)
    return min(len(s) for s in images)


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
@settings(max_examples=30, deadline=None)
def test_mni_support_equals_networkx(seed, kinded):
    rng = random.Random(seed)
    graph = random_graph(rng, kinded)
    if graph.num_edges == 0:
        return
    # kinded rule sets blow the 4-node pattern space up into thousands
    rules = graph.observed_edge_rules()
    enumerated = enumerate_patterns(rules, max_nodes=3 if kinded else 4)
    patterns = rng.sample(enumerated, min(len(enumerated), 6))
    patterns += [drawn_pattern(rng, graph) for _ in range(6)]
    above_max = graph.num_nodes + 1
    for pattern in filter(None, patterns):
        estimate = mni_support(graph, pattern, threshold=above_max)
        assert not estimate.budget_hit
        assert estimate.support == networkx_mni(graph, pattern), pattern
