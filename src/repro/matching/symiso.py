"""SymISO: symmetry-based metagraph matching (Sect. IV-C, Alg. 2–3).

The engine matches one *symmetric component* at a time instead of one
node at a time:

1. Decompose the metagraph with :func:`repro.metagraph.decomposition.decompose`
   into fixed components and twin families (pairs of components swapped
   by the witness involution ``sigma``).
2. Order the components by the estimated-instance-count node order
   (``SymISO``) or a seeded random order (``SymISO-R``).
3. Match fixed components by plain component backtracking.  For a twin
   family, compute the representative's matchings ``C(S|D)`` once; when
   every already-assigned pattern node is fixed by ``sigma`` the same
   matchings are *reused* for the twin, enumerating unordered pairs
   ``i < j`` of distinct matchings and verifying inter-component
   connectivity (Alg. 3's "choose |B| distinct matchings").  Because the
   swap of the two roles is realised by the automorphism ``sigma``, the
   ``i < j`` restriction drops only automorphic duplicates — every
   instance is still produced.
4. When reuse is unsafe (some assigned node is moved by ``sigma`` — this
   happens for the second twin family onward), the twin's matchings are
   computed directly and ordered pairs are enumerated; correctness is
   preserved, only the saving is smaller.

Compared with the node-at-a-time engines, SymISO both avoids
recomputing candidates for symmetric halves and halves the enumeration
per reused family, which is the speedup Fig. 11 measures.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence

from repro.graph.csr import csr_view
from repro.graph.typed_graph import NodeId, TypedGraph
from repro.matching.backtracking import backtrack_embeddings
from repro.matching.base import Embedding
from repro.matching.ordering import (
    component_order_from_node_order,
    estimated_cost_order,
    random_connected_order,
)
from repro.matching.plan import MatchPlan
from repro.metagraph.decomposition import Decomposition, TwinFamily, decompose
from repro.metagraph.metagraph import Metagraph

_EMPTY: frozenset = frozenset()


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
            node_order = estimated_cost_order(
                metagraph, csr_view(graph).cardinalities()
            )
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
            plan = MatchPlan(metagraph, node_order, induced=True, fixed=None)
            yield from backtrack_embeddings(graph, plan)
            return
        yield from _match_groups(graph, metagraph, decomp, groups)


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


def _component_assignments(
    graph: TypedGraph,
    metagraph: Metagraph,
    comp_nodes: Sequence[int],
    assignment: dict[int, NodeId],
    used: set[NodeId],
) -> list[tuple[NodeId, ...]]:
    """All matchings C(S|D) of a component given the partial assignment.

    Each returned tuple is aligned with ``comp_nodes``.  A matching
    satisfies type constraints, injectivity against ``used`` and within
    itself, and induced edge/non-edge constraints against both the
    global assignment and earlier nodes of the component.
    """
    # order component nodes: those with an already-assigned pattern
    # neighbour first (their candidates are cheap), then keep the
    # component prefix connected where possible
    nodes = list(comp_nodes)
    nodes.sort(
        key=lambda u: (
            -sum(1 for w in metagraph.neighbors(u) if w in assignment),
            u,
        )
    )
    results: list[tuple[NodeId, ...]] = []
    local: dict[int, NodeId] = {}
    local_used: set[NodeId] = set()

    def candidates(u: int) -> Iterator[NodeId]:
        node_type = metagraph.node_type(u)
        anchor_images = []
        for w in metagraph.neighbors(u):
            if w in assignment:
                anchor_images.append(assignment[w])
            elif w in local:
                anchor_images.append(local[w])
        if anchor_images:
            best = min(
                anchor_images,
                key=lambda img: len(graph.typed_adjacency(img).get(node_type, _EMPTY)),
            )
            seed = graph.typed_adjacency(best).get(node_type, _EMPTY)
            rest = [img for img in anchor_images if img is not best]
            for v in seed:
                if all(v in graph.adjacency(img) for img in rest):
                    yield v
        else:
            yield from graph.nodes_of_type(node_type)

    kinds_active = metagraph.has_kinds or graph.has_kinds

    def induced_ok(u: int, v: NodeId) -> bool:
        adj_v = graph.adjacency(v)
        for bound in (assignment, local):
            for w, img in bound.items():
                if metagraph.has_edge(u, w):
                    if img not in adj_v:
                        return False
                    if kinds_active and graph.edge_signature(
                        v, img
                    ) != metagraph.edge_signature(u, w):
                        return False
                elif img in adj_v:
                    return False
        return True

    def extend(k: int) -> None:
        if k == len(nodes):
            results.append(tuple(local[u] for u in comp_nodes))
            return
        u = nodes[k]
        for v in candidates(u):
            if v in used or v in local_used:
                continue
            if not induced_ok(u, v):
                continue
            local[u] = v
            local_used.add(v)
            extend(k + 1)
            local_used.discard(v)
            del local[u]

    extend(0)
    return results


def _cross_structure(
    metagraph: Metagraph,
    rep_nodes: Sequence[int],
    twin_nodes: Sequence[int],
    kinds_active: bool = False,
) -> list[list[tuple[int, bool, tuple[str, int] | None]]]:
    """Per rep position: (twin position, must-be-adjacent, signature).

    The signature entry is ``None`` unless ``kinds_active`` and the
    pattern edge exists, keeping the plain path allocation-identical.
    """
    structure: list[list[tuple[int, bool, tuple[str, int] | None]]] = []
    for u in rep_nodes:
        constraints = []
        for j, w in enumerate(twin_nodes):
            must_connect = metagraph.has_edge(u, w)
            sig = (
                metagraph.edge_signature(u, w)
                if kinds_active and must_connect
                else None
            )
            constraints.append((j, must_connect, sig))
        structure.append(constraints)
    return structure


def _cross_ok(
    graph: TypedGraph,
    structure: list[list[tuple[int, bool, tuple[str, int] | None]]],
    rep_tuple: tuple[NodeId, ...],
    twin_tuple: tuple[NodeId, ...],
) -> bool:
    """Induced edge/non-edge checks between the two components of a family."""
    for i, constraints in enumerate(structure):
        adj_u = graph.adjacency(rep_tuple[i])
        for j, must_connect, sig in constraints:
            if (twin_tuple[j] in adj_u) != must_connect:
                return False
            if sig is not None and graph.edge_signature(
                rep_tuple[i], twin_tuple[j]
            ) != sig:
                return False
    return True


def _match_groups(
    graph: TypedGraph,
    metagraph: Metagraph,
    decomp: Decomposition,
    groups: list[tuple[str, object]],
) -> Iterator[Embedding]:
    assignment: dict[int, NodeId] = {}
    used: set[NodeId] = set()
    sigma = decomp.sigma
    kinds_active = metagraph.has_kinds or graph.has_kinds

    def extend(g: int) -> Iterator[Embedding]:
        if g == len(groups):
            yield dict(assignment)
            return
        kind, payload = groups[g]
        if kind == "single":
            comp_nodes = decomp.components[payload]  # type: ignore[index]
            for chosen in _component_assignments(
                graph, metagraph, comp_nodes, assignment, used
            ):
                _bind(comp_nodes, chosen)
                yield from extend(g + 1)
                _unbind(comp_nodes, chosen)
            return

        family: TwinFamily = payload  # type: ignore[assignment]
        rep_nodes = decomp.components[family.representative]
        twin_nodes = decomp.components[family.twin]
        # twin node order corresponding to rep_nodes under sigma
        twin_aligned = tuple(sigma[u] for u in rep_nodes)
        rep_matchings = _component_assignments(
            graph, metagraph, rep_nodes, assignment, used
        )
        if not rep_matchings:
            return
        safe = all(sigma[w] == w for w in assignment)
        if safe and len(rep_nodes) == 1:
            # singleton twins (the common case: the two anchor users):
            # scalar candidates, a single cross constraint, i < j pairs
            u = rep_nodes[0]
            v = twin_aligned[0]
            must_connect = metagraph.has_edge(u, v)
            pair_sig = (
                metagraph.edge_signature(u, v)
                if kinds_active and must_connect
                else None
            )
            scalars = [t[0] for t in rep_matchings]
            for i, a in enumerate(scalars):
                adj_a = graph.adjacency(a)
                assignment[u] = a
                used.add(a)
                for b in scalars[i + 1 :]:
                    if (b in adj_a) != must_connect:
                        continue
                    if pair_sig is not None and graph.edge_signature(
                        a, b
                    ) != pair_sig:
                        continue
                    assignment[v] = b
                    used.add(b)
                    yield from extend(g + 1)
                    used.discard(b)
                    del assignment[v]
                used.discard(a)
                del assignment[u]
        elif safe:
            # Reuse C(S|D) for the twin; i < j keeps one of each
            # sigma-swapped duplicate pair.
            structure = _cross_structure(
                metagraph, rep_nodes, twin_aligned, kinds_active
            )
            match_sets = [set(t) for t in rep_matchings]
            for i in range(len(rep_matchings)):
                rep_tuple = rep_matchings[i]
                rep_set = match_sets[i]
                for j in range(i + 1, len(rep_matchings)):
                    if rep_set & match_sets[j]:
                        continue
                    twin_tuple = rep_matchings[j]
                    if not _cross_ok(graph, structure, rep_tuple, twin_tuple):
                        continue
                    _bind(rep_nodes, rep_tuple)
                    _bind(twin_aligned, twin_tuple)
                    yield from extend(g + 1)
                    _unbind(twin_aligned, twin_tuple)
                    _unbind(rep_nodes, rep_tuple)
        else:
            # Assigned context is not sigma-invariant: compute the twin's
            # matchings directly per representative choice.
            for rep_tuple in rep_matchings:
                _bind(rep_nodes, rep_tuple)
                twin_matchings = _component_assignments(
                    graph, metagraph, twin_aligned, assignment, used
                )
                for twin_tuple in twin_matchings:
                    _bind(twin_aligned, twin_tuple)
                    yield from extend(g + 1)
                    _unbind(twin_aligned, twin_tuple)
                _unbind(rep_nodes, rep_tuple)

    def _bind(nodes: Sequence[int], images: tuple[NodeId, ...]) -> None:
        for u, v in zip(nodes, images):
            assignment[u] = v
            used.add(v)

    def _unbind(nodes: Sequence[int], images: tuple[NodeId, ...]) -> None:
        for u, v in zip(nodes, images):
            del assignment[u]
            used.discard(v)

    yield from extend(0)
