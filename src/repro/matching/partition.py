"""Root-restricted matching orders for localized (pinned) enumeration.

Every embedding maps the search root to exactly one graph node, so
restricting the root's candidates restricts the embeddings found
exactly.  That powers *localized* re-matching for incremental index
maintenance (:mod:`repro.index.delta`):
:func:`~repro.matching.compiled.compiled_pinned_matrix` fixes one or
two pattern nodes to concrete graph nodes (the endpoints of a mutation)
and searches in the order :func:`rooted_order` grows from the first
pin, so the whole search is anchored on its singleton candidate set;
the result is an embedding matrix, counted like the offline build's.
"""

from __future__ import annotations

from repro.exceptions import MatchingError
from repro.graph.typed_graph import TypedGraph
from repro.matching.ordering import connected_order_from
from repro.metagraph.metagraph import Metagraph


def rooted_order(
    graph: TypedGraph, metagraph: Metagraph, root: int
) -> list[int]:
    """A connected pattern-node order starting at ``root``.

    Like :func:`~repro.matching.ordering.rarest_type_order` but with a
    caller-chosen start node, so a pinned root is bound first and the
    whole search is anchored on its (singleton) candidate set.
    """
    if not 0 <= root < metagraph.size:
        raise MatchingError(f"root {root} outside pattern 0..{metagraph.size - 1}")
    return connected_order_from(graph, metagraph, root)
