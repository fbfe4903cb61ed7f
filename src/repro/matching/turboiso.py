"""TurboISO-style matcher: candidate regions + selectivity-driven ordering.

TurboISO [21] explores candidate regions around a judiciously chosen
start node and orders the rest of the pattern by estimated selectivity.
Our reimplementation keeps those two ingredients:

1. a *candidate region* per pattern node — graph nodes of the right type
   whose per-type neighbour counts dominate the pattern node's (the
   compiled kernel's neighbourhood-profile filter, read as node ids);
2. the estimated-instance-count order of Sect. IV-C.

It still enumerates every embedding individually; like the original it
does not exploit pattern symmetry, which is SymISO's advantage.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.graph.csr import csr_view
from repro.graph.typed_graph import NodeId, TypedGraph
from repro.matching.backtracking import backtrack_embeddings
from repro.matching.base import Embedding
from repro.matching.compiled import profile_candidates
from repro.matching.ordering import estimated_cost_order
from repro.matching.plan import MatchPlan
from repro.metagraph.metagraph import Metagraph


def candidate_regions(
    graph: TypedGraph, metagraph: Metagraph
) -> dict[int, set[NodeId]] | None:
    """Per-pattern-node candidate sets from neighbourhood profiles.

    A graph node qualifies for pattern node ``u`` when it has at least
    as many neighbours of each type and edge signature as ``u`` does in
    the pattern: the node-id view of the kernel's
    :func:`~repro.matching.compiled.profile_candidates`.  Returns None
    when some pattern node has no candidates (no match).
    """
    csr = csr_view(graph)
    tcodes = [csr.type_id(metagraph.node_type(u)) for u in metagraph.nodes()]
    if None in tcodes:
        return None
    built = profile_candidates(csr, metagraph, tcodes, None)  # type: ignore[arg-type]
    if built is None:
        return None
    node_ids = csr.node_ids
    return {u: {node_ids[v] for v in cand.tolist()} for u, cand in enumerate(built[0])}


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
        order = estimated_cost_order(metagraph, csr_view(graph))
        plan = MatchPlan(metagraph, order, induced=True, fixed=None)
        yield from backtrack_embeddings(
            graph, plan, candidate_pool=regions
        )
