"""The dict-of-set executor of a match plan (Sect. IV-A).

A :class:`~repro.matching.plan.MatchPlan` fixes a node order
``u_1 .. u_n`` whose every prefix induces a connected sub-pattern, and
per position the constraints the next image must meet.  This executor
maintains a partial assignment ``D_k`` and computes the candidate set
``C(u_{k+1} | D_k)`` one graph node at a time:

- type must match;
- must be adjacent to the image of every earlier pattern neighbour,
  through a graph edge of the plan's (label, direction) signature
  (checked when the pattern or graph carries edge kinds);
- must be non-adjacent to the image of every earlier pattern
  non-neighbour the plan lists (induced semantics, Def. 2);
- must not already be used (injectivity).

Candidates are generated from the *smallest* typed adjacency list among
matched neighbours, which is the main source of pruning.  The optional
memoisation reproduces BoostISO's reuse idea: candidate lists are cached
on the assignment of the matched pattern neighbours, so sibling branches
that agree on those assignments skip recomputation.

It serves the Fig. 11 engines and the test oracles; production runs
on the plan's other executor, the CSR kernel, whose dense ids the
symmetry bounds compare, so plans executed here are unbroken.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.exceptions import MatchingError
from repro.graph.typed_graph import NodeId, TypedGraph
from repro.matching.base import Embedding
from repro.matching.plan import MatchPlan

_EMPTY: frozenset = frozenset()


def backtrack_embeddings(
    graph: TypedGraph,
    plan: MatchPlan,
    candidate_pool: dict[int, set[NodeId]] | None = None,
    memoize: bool = False,
) -> Iterator[Embedding]:
    """Yield every embedding ``plan`` admits on ``graph``.

    Parameters
    ----------
    plan:
        The search's constraints; it must be unbroken
        (:class:`~repro.exceptions.MatchingError` otherwise).
    candidate_pool:
        Optional per-pattern-node global candidate restriction
        (TurboISO-style candidate regions).  The mapping may be partial:
        pattern nodes without an entry are unrestricted, which is how
        region-free pinned enumeration restricts only the pinned nodes.
    memoize:
        Cache candidate lists keyed on matched-neighbour assignments
        (BoostISO-style reuse).
    """
    if plan.fixed is not None:
        raise MatchingError(
            "the backtracker executes unbroken plans only; symmetry "
            "bounds compare the compiled kernel's dense ids"
        )
    metagraph = plan.metagraph
    order = plan.order
    n = metagraph.size
    neighbors_at, nonneighbors_at = plan.neighbors_at, plan.nonneighbors_at
    types_at = [metagraph.node_type(u) for u in order]
    # edge-kind constraints are checked only when either side carries
    # kinds, so plain graphs/patterns run the exact legacy code path
    kinds_active = metagraph.has_kinds or graph.has_kinds
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
        i: int, node_type: str, nbr_positions: tuple[int, ...]
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
                for j, expected in zip(nbr_positions, plan.signatures_at[i]):
                    if graph.edge_signature(assignment[j], v) != expected:
                        ok = False
                        break
            if ok:
                yield v

    def extend(i: int) -> Iterator[Embedding]:
        if i == n:
            yield {order[j]: assignment[j] for j in range(n)}
            return
        non_positions = nonneighbors_at[i]
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
