"""The dict-of-set executor of a match plan (Sect. IV-A).

A :class:`~repro.matching.plan.MatchPlan` fixes a node order
``u_1 .. u_n`` and per position the constraints the next image must
meet.  This executor maintains a partial assignment ``D_k`` and
computes the candidate set ``C(u_{k+1} | D_k)`` one graph node at a
time:

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

The executor binds a *window* of positions at a time on top of the
images already bound below it (:meth:`Backtracker.window`);
:func:`backtrack_embeddings` is the window over every position.  SymISO
runs its components as windows of one plan and binds a reused twin
family between them.

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


class Backtracker:
    """One search of an unbroken ``plan`` on ``graph``, run window by window.

    ``assignment[i]`` is the image bound at position ``i`` (None while
    unbound) and ``used`` the set of bound images; a caller may bind
    positions itself between windows.  ``candidate_pool`` and
    ``memoize`` are those of :func:`backtrack_embeddings`.  Raises
    :class:`~repro.exceptions.MatchingError` for a broken plan.
    """

    def __init__(
        self,
        graph: TypedGraph,
        plan: MatchPlan,
        candidate_pool: dict[int, set[NodeId]] | None = None,
        memoize: bool = False,
    ):
        if plan.fixed is not None:
            raise MatchingError(
                "the backtracker executes unbroken plans only; symmetry "
                "bounds compare the compiled kernel's dense ids"
            )
        self.graph = graph
        self.plan = plan
        self._pool = candidate_pool
        self._memoize = memoize
        # edge-kind constraints are checked only when either side
        # carries kinds; plain graphs and patterns skip the comparison
        self.kinds_active = plan.metagraph.has_kinds or graph.has_kinds
        self.assignment: list[NodeId | None] = [None] * len(plan.order)
        self.used: set[NodeId] = set()
        self._types_at = [plan.metagraph.node_type(u) for u in plan.order]
        self._cache: dict[tuple, tuple[NodeId, ...]] = {}

    def window(self, start: int, stop: int) -> Iterator[None]:
        """Bind positions ``start .. stop-1`` on top of those bound below ``start``.

        Yields once per way to bind them, with their images in
        ``assignment[start:stop]`` and in ``used``; every position of
        the window is unbound again when the iterator is exhausted.
        """
        graph, plan = self.graph, self.plan
        order = plan.order
        neighbors_at, nonneighbors_at = plan.neighbors_at, plan.nonneighbors_at
        types_at = self._types_at
        candidate_pool, memoize, cache = self._pool, self._memoize, self._cache
        kinds_active = self.kinds_active
        assignment, used = self.assignment, self.used

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

        def extend(i: int) -> Iterator[None]:
            if i == stop:
                yield
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

        return extend(start)


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
    search = Backtracker(graph, plan, candidate_pool, memoize)
    order, assignment = plan.order, search.assignment
    for _ in search.window(0, len(order)):
        yield dict(zip(order, assignment))
