"""SymISO: symmetry-based metagraph matching (Sect. IV-C, Alg. 2–3).

The engine matches one *symmetric component* at a time instead of one
node at a time:

1. Decompose the metagraph with :func:`repro.metagraph.decomposition.decompose`
   into fixed components and twin families (pairs of components swapped
   by the witness involution ``sigma``).
2. Order the components by the estimated-instance-count node order
   (``SymISO``) or a seeded random order (``SymISO-R``).
3. Lay the components out as one unbroken induced
   :class:`~repro.matching.plan.MatchPlan`, each component's nodes in a
   row and a twin's nodes as ``sigma`` of its representative's.  Fixed
   components run as windows of that plan on the shared executor
   (:class:`~repro.matching.backtracking.Backtracker`).  For a twin
   family, the representative's window is matched once, ``C(S|D)``;
   when every node placed before the family is fixed by ``sigma`` the
   same matchings are *reused* for the twin, enumerating unordered
   pairs ``i < j`` of disjoint matchings and checking the twin
   positions' constraints on the representative's positions (Alg. 3's
   "choose |B| distinct matchings").  Because the swap of the two roles
   is realised by the automorphism ``sigma``, the ``i < j`` restriction
   drops only automorphic duplicates — every instance is still
   produced.
4. When reuse is unsafe (some earlier node is moved by ``sigma`` — this
   happens for the second twin family onward), the twin is one more
   window of the plan; correctness is preserved, only the saving is
   smaller.
5. A pattern whose first step is a family (every node is moved by
   ``sigma``, e.g. a double square) has no fixed node to anchor it and
   runs as plain backtracking in the node order (Sect. IV-B's
   fallback).

Compared with the node-at-a-time engines, SymISO both avoids
recomputing candidates for symmetric halves and halves the enumeration
per reused family, which is the speedup Fig. 11 measures.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from functools import partial

from repro.graph.csr import csr_view
from repro.graph.typed_graph import NodeId, TypedGraph
from repro.matching.backtracking import Backtracker
from repro.matching.base import Embedding
from repro.matching.ordering import (
    component_order_from_node_order,
    estimated_cost_order,
    random_connected_order,
)
from repro.matching.plan import MatchPlan
from repro.metagraph.decomposition import Decomposition, TwinFamily, decompose
from repro.metagraph.metagraph import Metagraph


class SymISOMatcher:
    """Symmetry-based component matcher.

    Parameters
    ----------
    random_order:
        Use a seeded random connected node order instead of the
        estimated-cost order — this is the paper's SymISO-R ablation.
    seed:
        Seed for the random order (ignored unless ``random_order``).
    """

    def __init__(self, random_order: bool = False, seed: int = 0):
        self.random_order = random_order
        self.seed = seed
        self.name = "SymISO-R" if random_order else "SymISO"

    # ------------------------------------------------------------------
    def find_embeddings(
        self, graph: TypedGraph, metagraph: Metagraph
    ) -> Iterator[Embedding]:
        """Yield embeddings covering every instance of the metagraph.

        Automorphic duplicates within reused twin families are skipped
        by construction; remaining duplicates (larger automorphism
        groups) are removed by the instance-level deduplication that all
        engines share.
        """
        decomp = decompose(metagraph)
        if self.random_order:
            rng = random.Random(self.seed)
            node_order = random_connected_order(metagraph, rng)
        else:
            node_order = estimated_cost_order(metagraph, csr_view(graph))
        comp_order = component_order_from_node_order(node_order, decomp.components)
        # SymISO-R ablates the order policy entirely: raw first-appearance
        # component order from the random node order, no anchor-first
        # reordering.  (Connected node orders still guarantee that every
        # non-initial group has an assigned pattern neighbour.)
        groups = _plan_groups(decomp, comp_order, reorder=not self.random_order)
        if groups and groups[0][0] == "family":
            # No fixed component can anchor the first family (every node
            # is moved by sigma, e.g. a double square): component-at-a-
            # time matching would start from unanchored whole-type-class
            # candidate sets.  Plain node-at-a-time backtracking with the
            # same order is strictly better here (Sect. IV-B's fallback).
            order, reused = node_order, []
        else:
            order, reused = _group_order(decomp, groups)
        plan = MatchPlan(metagraph, order, induced=True, fixed=None)
        yield from _match(graph, plan, reused)


def _plan_groups(
    decomp: Decomposition, comp_order: list[int], reorder: bool = True
) -> list[tuple[str, object]]:
    """Turn a component order into match steps: singles and twin families.

    A family is scheduled at the earlier of its two components'
    positions (Alg. 3 matches the set ``B`` together), then the steps
    are greedily reordered so that

    - each step is pattern-adjacent to the already-scheduled nodes
      (connected prefixes keep candidate sets anchored), and
    - fixed singles go before twin families whenever both are eligible —
      a family matched with no bound anchor would enumerate whole type
      classes, exactly the blow-up the matching order exists to avoid.
    """
    rep_family: dict[int, TwinFamily] = {
        f.representative: f for f in decomp.families
    }
    twin_family: dict[int, TwinFamily] = {f.twin: f for f in decomp.families}
    base: list[tuple[str, object]] = []
    done: set[int] = set()
    for comp_idx in comp_order:
        if comp_idx in done:
            continue
        family = rep_family.get(comp_idx) or twin_family.get(comp_idx)
        if family is not None:
            base.append(("family", family))
            done.add(family.representative)
            done.add(family.twin)
        else:
            base.append(("single", comp_idx))
            done.add(comp_idx)
    if not reorder:
        return base

    def nodes_of(group: tuple[str, object]) -> tuple[int, ...]:
        if group[0] == "single":
            return decomp.components[group[1]]  # type: ignore[index]
        family: TwinFamily = group[1]  # type: ignore[assignment]
        return (
            decomp.components[family.representative]
            + decomp.components[family.twin]
        )

    metagraph = decomp.metagraph
    ordered: list[tuple[str, object]] = []
    scheduled: set[int] = set()
    pending = list(base)
    while pending:
        pick = None
        fallback = None
        for group in pending:
            nodes = nodes_of(group)
            connected = not scheduled or any(
                metagraph.neighbors(n) & scheduled for n in nodes
            )
            if not connected:
                continue
            if group[0] == "single":
                pick = group
                break
            if fallback is None:
                fallback = group
        if pick is None:
            pick = fallback if fallback is not None else pending[0]
        ordered.append(pick)
        pending.remove(pick)
        scheduled.update(nodes_of(pick))
    return ordered


def _group_order(
    decomp: Decomposition, groups: list[tuple[str, object]]
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The plan order of ``groups`` and the position spans of reused families.

    A component's nodes go in order of most neighbours placed before
    the component, then node id; a twin's nodes are ``sigma`` of its
    representative's, position for position.  A family is reused, as
    ``(representative start, twin start, twin stop)``, when ``sigma``
    fixes every node placed before it: only then does the twin meet
    the representative's constraints against them.
    """
    metagraph, sigma = decomp.metagraph, decomp.sigma
    order: list[int] = []
    reused: list[tuple[int, int, int]] = []
    for kind, payload in groups:
        placed = set(order)
        rep = payload.representative if kind == "family" else payload  # type: ignore[attr-defined]
        nodes = [
            u
            for _, u in sorted(
                (-len(metagraph.neighbors(u) & placed), u)
                for u in decomp.components[rep]  # type: ignore[index]
            )
        ]
        start = len(order)
        order.extend(nodes)
        if kind == "family":
            order.extend(sigma[u] for u in nodes)
            if all(sigma[w] == w for w in order[:start]):
                reused.append((start, start + len(nodes), len(order)))
    return order, reused


def _match(
    graph: TypedGraph, plan: MatchPlan, reused: list[tuple[int, int, int]]
) -> Iterator[Embedding]:
    """Run ``plan`` as windows of the shared executor around the reused families."""
    search = Backtracker(graph, plan)
    steps: list[Callable[[], Iterator[None]]] = []
    at = 0
    for start, mid, stop in reused:
        if at < start:
            steps.append(partial(search.window, at, start))
        steps.append(partial(_twin_pairs, search, start, mid, stop))
        at = stop
    if at < len(plan.order):
        steps.append(partial(search.window, at, len(plan.order)))
    order, assignment = plan.order, search.assignment

    def extend(s: int) -> Iterator[Embedding]:
        if s == len(steps):
            yield dict(zip(order, assignment))
            return
        for _ in steps[s]():
            yield from extend(s + 1)

    yield from extend(0)


def _twin_pairs(search: Backtracker, start: int, mid: int, stop: int) -> Iterator[None]:
    """Bind a reused family: two distinct matchings of its representative.

    The representative's window ``start .. mid-1`` is matched once,
    C(S|D); the twin at ``mid .. stop-1`` takes a *later* matching
    disjoint from the first that meets the twin positions' constraints
    against the representative's positions.  Its constraints against
    earlier positions are the representative's, since ``sigma`` fixes
    every node bound there, and swapping the two roles is the
    automorphism ``sigma``, so ``i < j`` drops only automorphic
    duplicates.  Yields once per bound pair, like a window.
    """
    graph, plan = search.graph, search.plan
    assignment, used = search.assignment, search.used
    kinds_active = search.kinds_active
    matchings = [tuple(assignment[start:mid]) for _ in search.window(start, mid)]
    if mid - start == 1:
        # singleton twins (the common case: the two anchor users):
        # scalar candidates, a single cross constraint
        cross = [
            sig
            for j, sig in zip(plan.neighbors_at[mid], plan.signatures_at[mid])
            if j == start
        ]
        must_connect = bool(cross)
        pair_sig = cross[0] if kinds_active and must_connect else None
        scalars = [m[0] for m in matchings]
        for i, a in enumerate(scalars):
            adj_a = graph.adjacency(a)
            assignment[start] = a
            used.add(a)
            for b in scalars[i + 1 :]:
                if (b in adj_a) != must_connect:
                    continue
                if pair_sig is not None and graph.edge_signature(a, b) != pair_sig:
                    continue
                assignment[mid] = b
                used.add(b)
                yield
                used.discard(b)
            used.discard(a)
        assignment[start] = assignment[mid] = None
        return

    # a multi-node twin is another component of the moved nodes than its
    # representative (decompose), so no pattern edge joins the two: per
    # twin position, only the representative offsets it must be apart from
    apart = [
        [j - start for j in plan.nonneighbors_at[p] if start <= j < mid]
        for p in range(mid, stop)
    ]

    def cross_ok(rep: tuple[NodeId, ...], twin: tuple[NodeId, ...]) -> bool:
        for k, t in enumerate(twin):
            adj_t = graph.adjacency(t)
            for x in apart[k]:
                if rep[x] in adj_t:
                    return False
        return True

    sets = [set(m) for m in matchings]
    for i, rep in enumerate(matchings):
        for j in range(i + 1, len(matchings)):
            if sets[i] & sets[j] or not cross_ok(rep, matchings[j]):
                continue
            assignment[start:stop] = rep + matchings[j]
            used.update(assignment[start:stop])
            yield
            used.difference_update(assignment[start:stop])
    assignment[start:stop] = [None] * (stop - start)
