"""Root-restricted matching: localized (pinned) enumeration.

Every embedding maps the search root to exactly one graph node, so
restricting the root's candidates restricts the embedding stream
exactly.  That powers *localized* re-matching for incremental index
maintenance (:mod:`repro.index.delta`): :func:`pinned_embeddings` fixes
one or two pattern nodes to concrete graph nodes (the endpoints of a
mutation) and optionally confines every other pattern node to an
affected region, so only the embeddings a mutation could possibly touch
are enumerated.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Set

from repro.exceptions import MatchingError
from repro.graph.typed_graph import NodeId, TypedGraph
from repro.matching.backtracking import backtrack_embeddings
from repro.matching.base import Embedding
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


def pinned_embeddings(
    graph: TypedGraph,
    metagraph: Metagraph,
    pins: Mapping[int, NodeId],
    region: Mapping[str, Set] | None = None,
) -> Iterator[Embedding]:
    """Embeddings mapping each pinned pattern node to its pinned graph node.

    Parameters
    ----------
    pins:
        ``{pattern_node: graph_node}`` — non-empty; the search is rooted
        at the first pin, so its singleton candidate set anchors the
        whole backtracking.  A pin whose graph node is absent or of the
        wrong type yields no embeddings.
    region:
        Optional per-type restriction for every *unpinned* pattern node
        (typically the nodes within pattern radius of a mutation).
        Types missing from the mapping admit no candidates.
    """
    if not pins:
        # raised eagerly (this is not the generator) so the error points
        # at the caller that built the empty pins, not at first iteration
        raise MatchingError("pinned_embeddings needs at least one pin")
    return _pinned_embeddings(graph, metagraph, pins, region)


def _pinned_embeddings(
    graph: TypedGraph,
    metagraph: Metagraph,
    pins: Mapping[int, NodeId],
    region: Mapping[str, Set] | None,
) -> Iterator[Embedding]:
    for pattern_node, graph_node in pins.items():
        if (
            graph_node not in graph
            or graph.node_type(graph_node) != metagraph.node_type(pattern_node)
        ):
            return
    pool: dict[int, set[NodeId]] = {
        pattern_node: {graph_node} for pattern_node, graph_node in pins.items()
    }
    if region is not None:
        for u in metagraph.nodes():
            if u not in pool:
                pool[u] = set(region.get(metagraph.node_type(u), ()))
    order = rooted_order(graph, metagraph, next(iter(pins)))
    yield from backtrack_embeddings(graph, metagraph, order, candidate_pool=pool)
