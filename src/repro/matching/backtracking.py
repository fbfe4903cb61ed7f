"""The shared backtracking skeleton for subgraph matching (Sect. IV-A).

Given a node order ``u_1 .. u_n`` whose every prefix induces a connected
sub-pattern, the engine maintains a partial assignment ``D_k`` and, for
the next pattern node, computes the candidate set ``C(u_{k+1} | D_k)``:

- type must match;
- must be adjacent to the image of every matched pattern neighbour;
- must be non-adjacent to the image of every matched pattern
  non-neighbour (induced semantics, Def. 2);
- when the pattern or graph carries edge kinds, the (label, direction)
  signature of every matched pattern edge must equal the corresponding
  graph edge's signature;
- must not already be used (injectivity).

Candidates are generated from the *smallest* typed adjacency list among
matched neighbours, which is the main source of pruning.  The optional
memoisation reproduces BoostISO's reuse idea: candidate lists are cached
on the assignment of the matched pattern neighbours, so sibling branches
that agree on those assignments skip recomputation.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.exceptions import MatchingError
from repro.graph.typed_graph import NodeId, TypedGraph
from repro.matching.base import Embedding
from repro.metagraph.metagraph import Metagraph

_EMPTY: frozenset = frozenset()


def _prefix_structure(
    metagraph: Metagraph, order: Sequence[int]
) -> tuple[list[list[int]], list[list[int]]]:
    """Per position: earlier order-positions that are pattern (non)neighbours."""
    position = {node: i for i, node in enumerate(order)}
    if len(position) != metagraph.size:
        raise MatchingError(f"order {order!r} is not a permutation of pattern nodes")
    neighbors: list[list[int]] = []
    nonneighbors: list[list[int]] = []
    for i, u in enumerate(order):
        nbr = [position[w] for w in metagraph.neighbors(u) if position[w] < i]
        nbr_set = set(nbr)  # hoisted: the comprehension is O(i) either way,
        non = [j for j in range(i) if j not in nbr_set]  # not O(i * deg)
        neighbors.append(sorted(nbr))
        nonneighbors.append(non)
    return neighbors, nonneighbors


def backtrack_embeddings(
    graph: TypedGraph,
    metagraph: Metagraph,
    order: Sequence[int],
    candidate_pool: dict[int, set[NodeId]] | None = None,
    memoize: bool = False,
    induced: bool = True,
) -> Iterator[Embedding]:
    """Yield every embedding of ``metagraph`` on ``graph``.

    Parameters
    ----------
    order:
        Pattern-node order; every prefix must induce a connected
        sub-pattern (except position 0).
    candidate_pool:
        Optional per-pattern-node global candidate restriction
        (TurboISO-style candidate regions).  The mapping may be partial:
        pattern nodes without an entry are unrestricted, which is how
        region-free pinned enumeration restricts only the pinned nodes.
    memoize:
        Cache candidate lists keyed on matched-neighbour assignments
        (BoostISO-style reuse).
    induced:
        Def. 2 induced semantics (default).  ``False`` switches to
        standard (non-induced) subgraph isomorphism, which the
        unbroken MNI oracle of the tests enumerates.
    """
    n = metagraph.size
    neighbors_at, nonneighbors_at = _prefix_structure(metagraph, order)
    types_at = [metagraph.node_type(u) for u in order]
    # edge-kind constraints are checked only when either side carries
    # kinds, so plain graphs/patterns run the exact legacy code path
    kinds_active = metagraph.has_kinds or graph.has_kinds
    sigs_at: list[dict[int, tuple[str, int]]] = []
    if kinds_active:
        for i, u in enumerate(order):
            sigs_at.append(
                {
                    j: metagraph.edge_signature(order[j], u)
                    for j in neighbors_at[i]
                }
            )
    assignment: list[NodeId | None] = [None] * n  # indexed by order position
    used: set[NodeId] = set()
    cache: dict[tuple, tuple[NodeId, ...]] = {}

    def candidates(i: int) -> Iterator[NodeId]:
        node_type = types_at[i]
        nbr_positions = neighbors_at[i]
        if not nbr_positions:
            pool = (
                candidate_pool.get(order[i])
                if candidate_pool is not None
                else None
            )
            yield from pool if pool is not None else graph.nodes_of_type(node_type)
            return
        if memoize:
            key = (i, tuple(assignment[j] for j in nbr_positions))
            hit = cache.get(key)
            if hit is not None:
                yield from hit
                return
            computed = tuple(_raw_candidates(i, node_type, nbr_positions))
            cache[key] = computed
            yield from computed
            return
        yield from _raw_candidates(i, node_type, nbr_positions)

    def _raw_candidates(
        i: int, node_type: str, nbr_positions: list[int]
    ) -> Iterator[NodeId]:
        # seed from the smallest typed adjacency among matched neighbours
        best_pos = min(
            nbr_positions,
            key=lambda j: len(
                graph.typed_adjacency(assignment[j]).get(node_type, _EMPTY)
            ),
        )
        seed = graph.typed_adjacency(assignment[best_pos]).get(node_type, _EMPTY)
        others = [j for j in nbr_positions if j != best_pos]
        pool = candidate_pool.get(order[i]) if candidate_pool is not None else None
        for v in seed:
            if pool is not None and v not in pool:
                continue
            ok = True
            for j in others:
                if v not in graph.adjacency(assignment[j]):
                    ok = False
                    break
            if ok and kinds_active:
                for j, expected in sigs_at[i].items():
                    if graph.edge_signature(assignment[j], v) != expected:
                        ok = False
                        break
            if ok:
                yield v

    def extend(i: int) -> Iterator[Embedding]:
        if i == n:
            yield {order[j]: assignment[j] for j in range(n)}
            return
        non_positions = nonneighbors_at[i] if induced else ()
        for v in candidates(i):
            if v in used:
                continue
            induced_ok = True
            for j in non_positions:
                if v in graph.adjacency(assignment[j]):
                    induced_ok = False
                    break
            if not induced_ok:
                continue
            assignment[i] = v
            used.add(v)
            yield from extend(i + 1)
            used.discard(v)
            assignment[i] = None

    yield from extend(0)
