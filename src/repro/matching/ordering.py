"""Matching orders: which pattern node to bind next.

The search-space size of backtracking matching depends heavily on the
node order (Sect. IV-C "Matching order").  This module implements the
paper's estimated-instance-count ordering:

    f(M^(i+1)) = f(M^(i)) * |I(<u, u'>)| / |I(u)|

where ``|I(<u, u'>)|`` is the number of graph edges whose endpoint types
match the pattern edge and ``|I(u)|`` the number of graph nodes of
``u``'s type.  At each step the edge minimising the estimate is added;
node order is the order of first appearance.  Both cardinalities have
one source, the CSR view (:meth:`~repro.graph.csr.CSRGraph.nodes_of`,
:meth:`~repro.graph.csr.CSRGraph.edges_of`): the per-type totals
accumulated while it is laid out.

A rarest-type-first connected order grown from a given start (QuickSI's
static order from the rarest node, and the delta path's pinned searches
from the first pin) and a seeded random order (for SymISO-R) are also
provided.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from repro.exceptions import MatchingError
from repro.graph.csr import CSRGraph
from repro.graph.typed_graph import TypedGraph
from repro.metagraph.metagraph import Metagraph


def estimated_cost_order(
    metagraph: Metagraph, csr: CSRGraph
) -> list[int]:
    """The paper's f(M)-minimising node order (Sect. IV-C).

    Greedy: start from the pattern edge with the fewest matching graph
    edges; repeatedly extend by the frontier edge whose selectivity
    ``|I(<u,u'>)| / |I(u)|`` is smallest.  Every prefix of the returned
    order induces a connected sub-pattern.  ``csr`` (the graph's
    ``csr_view``) answers |I(t)| and |I(<t1, t2>)|.
    """
    n = metagraph.size
    if n == 1:
        return [0]

    def edge_cost(u: int, v: int) -> float:
        return csr.edges_of(metagraph.node_type(u), metagraph.node_type(v))

    first_edge = min(metagraph.edges, key=lambda e: (edge_cost(*e), e))
    # orient the first edge: bind the rarer-type endpoint first
    u0, v0 = first_edge
    nodes_of = csr.nodes_of
    if nodes_of(metagraph.node_type(v0)) < nodes_of(metagraph.node_type(u0)):
        u0, v0 = v0, u0
    order = [u0, v0]
    in_order = {u0, v0}
    while len(order) < n:
        best: tuple[float, int, int] | None = None
        for u in order:
            for v in metagraph.neighbors(u):
                if v in in_order:
                    continue
                denom = max(1, nodes_of(metagraph.node_type(u)))
                selectivity = edge_cost(u, v) / denom
                key = (selectivity, v, u)
                if best is None or key < best:
                    best = key
        assert best is not None  # metagraphs are connected
        order.append(best[1])
        in_order.add(best[1])
    return order


def _rarity_key(
    graph: TypedGraph, metagraph: Metagraph
) -> Callable[[int], tuple[int, int, int]]:
    """Preference for the next pattern node: rarest type, then higher
    pattern degree (more constraints earlier), then node id."""

    def rarity(u: int) -> tuple[int, int, int]:
        return (graph.count_type(metagraph.node_type(u)), -metagraph.degree(u), u)

    return rarity


def connected_order_from(
    graph: TypedGraph, metagraph: Metagraph, start: int
) -> list[int]:
    """Grow a connected order from ``start``, rarest-type-first.

    The shared skeleton of :func:`rarest_type_order` (which picks the
    globally rarest start) and of the delta path's pinned searches
    (:func:`repro.matching.compiled.compiled_pinned_matrix`), where the
    first pin is the start: binding it first anchors the whole search
    on its singleton candidate set.  Raises
    :class:`~repro.exceptions.MatchingError` for a start outside the
    pattern.
    """
    if not 0 <= start < metagraph.size:
        raise MatchingError(f"root {start} outside pattern 0..{metagraph.size - 1}")
    rarity = _rarity_key(graph, metagraph)
    order = [start]
    in_order = {start}
    while len(order) < metagraph.size:
        frontier = {
            v
            for u in order
            for v in metagraph.neighbors(u)
            if v not in in_order
        }
        nxt = min(frontier, key=rarity)
        order.append(nxt)
        in_order.add(nxt)
    return order


def rarest_type_order(graph: TypedGraph, metagraph: Metagraph) -> list[int]:
    """Static connected order starting from the rarest-type node.

    QuickSI-flavoured: the start node has the fewest candidate graph
    nodes; ties and subsequent choices prefer rarer types, then higher
    pattern degree (more constraints earlier).
    """
    start = min(range(metagraph.size), key=_rarity_key(graph, metagraph))
    return connected_order_from(graph, metagraph, start)


def random_connected_order(
    metagraph: Metagraph, rng: random.Random
) -> list[int]:
    """A random order whose every prefix is connected (for SymISO-R)."""
    n = metagraph.size
    start = rng.randrange(n)
    order = [start]
    in_order = {start}
    while len(order) < n:
        frontier = sorted(
            v
            for u in order
            for v in metagraph.neighbors(u)
            if v not in in_order
        )
        nxt = rng.choice(frontier)
        order.append(nxt)
        in_order.add(nxt)
    return order


def component_order_from_node_order(
    node_order: list[int], components: tuple[tuple[int, ...], ...]
) -> list[int]:
    """Order component indexes by the first appearance of any member node.

    Implements "when a node of a component S is chosen, we select S as
    the next component to match" (Sect. IV-C).
    """
    position = {node: i for i, node in enumerate(node_order)}
    first_seen = [min(position[n] for n in comp) for comp in components]
    return sorted(range(len(components)), key=lambda c: first_seen[c])
