"""BoostISO-style matcher: candidate regions plus candidate-list reuse.

BoostISO [22] speeds up backtracking by exploiting relationships between
graph vertices to share computation across search branches.  Our
reimplementation layers its reuse idea on top of the TurboISO-style
engine: candidate lists are memoised on the assignment of the matched
pattern neighbours, so sibling subtrees that agree on those assignments
skip candidate recomputation entirely.

Like the original, it does not exploit *pattern* symmetry — redundant
exploration of symmetric halves remains, which SymISO removes.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.graph.csr import csr_view
from repro.graph.typed_graph import TypedGraph
from repro.matching.backtracking import backtrack_embeddings
from repro.matching.base import Embedding
from repro.matching.ordering import estimated_cost_order
from repro.matching.plan import MatchPlan
from repro.matching.turboiso import candidate_regions
from repro.metagraph.metagraph import Metagraph


class BoostISOMatcher:
    """Candidate regions + memoised candidate computation."""

    name = "BoostISO"

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
            graph, plan, candidate_pool=regions, memoize=True
        )
