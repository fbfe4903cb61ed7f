"""TurboISO-style matcher: candidate regions + selectivity-driven ordering.

TurboISO [21] explores candidate regions around a judiciously chosen
start node and orders the rest of the pattern by estimated selectivity.
Our reimplementation keeps those two ingredients:

1. a *candidate region* per pattern node — graph nodes of the right type
   whose degree and per-type neighbour counts dominate the pattern
   node's (a neighbourhood-profile filter);
2. the estimated-instance-count order of Sect. IV-C.

It still enumerates every embedding individually; like the original it
does not exploit pattern symmetry, which is SymISO's advantage.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

from repro.graph.csr import csr_view
from repro.graph.typed_graph import NodeId, TypedGraph
from repro.matching.backtracking import backtrack_embeddings
from repro.matching.base import Embedding
from repro.matching.ordering import estimated_cost_order
from repro.matching.plan import MatchPlan
from repro.metagraph.metagraph import Metagraph


def candidate_regions(
    graph: TypedGraph, metagraph: Metagraph
) -> dict[int, set[NodeId]] | None:
    """Per-pattern-node candidate sets from neighbourhood profiles.

    A graph node qualifies for pattern node ``u`` when it has at least
    as many neighbours of each type as ``u`` does in the pattern.
    Returns None when some pattern node has no candidates (no match).
    """
    regions: dict[int, set[NodeId]] = {}
    for u in metagraph.nodes():
        profile = Counter(metagraph.node_type(v) for v in metagraph.neighbors(u))
        region: set[NodeId] = set()
        for node in graph.nodes_of_type(metagraph.node_type(u)):
            typed = graph.typed_adjacency(node)
            if all(len(typed.get(t, ())) >= need for t, need in profile.items()):
                region.add(node)
        if not region:
            return None
        regions[u] = region
    return regions


class TurboISOMatcher:
    """Backtracking restricted to precomputed candidate regions."""

    name = "TurboISO"

    def find_embeddings(
        self, graph: TypedGraph, metagraph: Metagraph
    ) -> Iterator[Embedding]:
        """Yield all embeddings of ``metagraph`` on ``graph``."""
        regions = candidate_regions(graph, metagraph)
        if regions is None:
            return
        order = estimated_cost_order(metagraph, csr_view(graph).cardinalities())
        plan = MatchPlan(metagraph, order, induced=True, fixed=None)
        yield from backtrack_embeddings(
            graph, plan, candidate_pool=regions
        )
