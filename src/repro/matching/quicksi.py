"""QuickSI-style matcher: static infrequent-first ordering, plain backtracking.

QuickSI [19] tames verification cost with a spanning-entry ordering that
binds infrequent pattern features first.  Our reimplementation captures
that idea with the rarest-type-first static order over the shared
backtracking skeleton, with no candidate regions and no reuse — the
baseline the other engines improve on.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.graph.typed_graph import TypedGraph
from repro.matching.backtracking import backtrack_embeddings
from repro.matching.base import Embedding
from repro.matching.ordering import rarest_type_order
from repro.matching.plan import MatchPlan
from repro.metagraph.metagraph import Metagraph


class QuickSIMatcher:
    """Plain backtracking with a rarest-type-first static node order."""

    name = "QuickSI"

    def find_embeddings(
        self, graph: TypedGraph, metagraph: Metagraph
    ) -> Iterator[Embedding]:
        """Yield all embeddings of ``metagraph`` on ``graph``."""
        order = rarest_type_order(graph, metagraph)
        plan = MatchPlan(metagraph, order, induced=True, fixed=None)
        yield from backtrack_embeddings(graph, plan)
