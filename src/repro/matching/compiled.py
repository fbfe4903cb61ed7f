"""Compiled matching kernel over the integer-CSR graph view.

The pure-Python engines walk dict-of-set adjacency one candidate at a
time; profiling the offline build shows nearly all wall-clock inside
that inner loop.  :class:`CompiledMatcher` runs the same search over
:class:`~repro.graph.csr.CSRGraph` arrays instead:

- **candidate regions** come from one vectorised comparison of the
  neighbourhood-profile matrix against the pattern node's profile
  (replacing the per-node Python loop of
  :func:`repro.matching.turboiso.candidate_regions`);
- **candidate generation** intersects the sorted typed-adjacency slices
  of the matched pattern neighbours by binary search on whole arrays
  (seeded from the smallest slice, as the Python skeleton does);
- **induced semantics** (Def. 2) masks out candidates adjacent to any
  matched non-neighbour with the same binary-search membership test;
- the backtracking itself is **iterative** (an explicit stack of
  candidate arrays), so deep patterns never touch Python's recursion
  machinery;
- **symmetry breaking** reuses SymISO's idea at array level: for a
  symmetric pattern, one twin pair ``(r, sigma(r))`` of the witness
  involution is ordered (``image[r] < image[sigma(r)]``) by slicing the
  sorted candidate array once — half the embeddings never get
  enumerated, and the skipped ones are automorphic images of kept ones,
  so every *instance* is still produced (the contract of
  :class:`~repro.matching.base.MatcherProtocol`).

The engine is instance-set-identical to ``SymISO`` (the cross-matcher
parity suite pins this), which makes the Eq. 1–2
:class:`~repro.index.instance_index.MetagraphCounts` bit-identical.

:func:`compiled_pinned_embeddings` is the localized re-matching of the
delta path (:mod:`repro.index.delta`): pins become singleton candidate
arrays and the affected region becomes per-type candidate masks.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence, Set

import numpy as np

from repro.exceptions import MatchingError
from repro.graph.csr import CSRGraph, csr_view
from repro.graph.typed_graph import NodeId, TypedGraph
from repro.matching.backtracking import _prefix_structure
from repro.matching.base import Embedding
from repro.matching.ordering import estimated_cost_order
from repro.metagraph.decomposition import decompose
from repro.metagraph.metagraph import Metagraph


def _contains_sorted(haystack: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``values`` occur in the sorted ``haystack``.

    Clamping out-of-range insertion points to the last element is safe:
    a value past the end is strictly greater than every element, so the
    equality test below is False for it anyway.
    """
    if haystack.size == 0:
        return np.zeros(values.size, dtype=bool)
    pos = haystack.searchsorted(values)
    np.minimum(pos, haystack.size - 1, out=pos)
    return haystack[pos] == values


def compiled_order(csr: CSRGraph, metagraph: Metagraph) -> list[int]:
    """The paper's estimated-cost matching order, answered from CSR stats.

    Same heuristic as SymISO's, but the type cardinalities come from the
    totals accumulated during the CSR layout pass instead of an O(|E|)
    rescan per pattern.
    """
    return estimated_cost_order(None, metagraph, csr.cardinalities())


def _symmetry_cut(
    metagraph: Metagraph, order: Sequence[int]
) -> tuple[int, int, bool] | None:
    """One twin pair's ordering constraint, as (cut_pos, partner_pos, keep_greater).

    For a symmetric pattern the witness involution ``sigma`` swaps the
    first twin family's representative node ``r`` with ``sigma(r)``;
    requiring ``image[r] < image[sigma(r)]`` keeps exactly one of each
    pair ``{phi, phi . sigma}`` — same node set, so no instance is lost.
    Only one family is constrained: a second simultaneous constraint
    under the *same* involution could exclude both members of a pair.
    """
    decomp = decompose(metagraph)
    if not decomp.families:
        return None
    family = decomp.families[0]
    r = decomp.components[family.representative][0]
    s = decomp.sigma[r]
    position = {u: i for i, u in enumerate(order)}
    pr, ps = position[r], position[s]
    if pr < ps:
        return ps, pr, True  # at s's turn keep candidates > image[r]
    return pr, ps, False  # at r's turn keep candidates < image[s]


def _base_candidates(
    csr: CSRGraph,
    metagraph: Metagraph,
    tcodes: Sequence[int],
    pool: Mapping[int, np.ndarray] | None,
    kinds_active: bool = False,
) -> tuple[list[np.ndarray], list[bool]] | None:
    """Per-pattern-node global candidate arrays (profile filter ∩ pool).

    Returns the arrays plus a per-node "is the whole type class" flag —
    a full base filters nothing, so the search skips intersecting
    against it.  Returns None when some pattern node has no candidates
    at all — the vectorised equivalent of ``candidate_regions``
    returning None.  With ``kinds_active`` the filter compares the
    per-(type, signature) profile matrix instead, so a node lacking the
    right labeled/directed neighbour edges is pruned up front.
    """
    num_types = csr.num_types
    num_sigs = csr.num_sigs
    base: list[np.ndarray] = []
    full: list[bool] = []
    for u in metagraph.nodes():
        if kinds_active:
            assert csr.sig_profiles is not None
            profile = np.zeros(num_types * num_sigs, dtype=csr.profiles.dtype)
            for v in metagraph.neighbors(u):
                code_v = csr.type_id(metagraph.node_type(v))
                if code_v is None:  # neighbour type absent: no match
                    return None
                sig = csr.sig_id(*metagraph.edge_signature(u, v))
                if sig is None:  # signature never occurs in the graph
                    return None
                profile[code_v * num_sigs + sig] += 1
            lo, hi = csr.type_range(tcodes[u])
            mask = (csr.sig_profiles[lo:hi] >= profile).all(axis=1)
        else:
            profile = np.zeros(num_types, dtype=csr.profiles.dtype)
            for v in metagraph.neighbors(u):
                code_v = csr.type_id(metagraph.node_type(v))
                if code_v is None:  # neighbour type absent: nothing can match
                    return None
                profile[code_v] += 1
            lo, hi = csr.type_range(tcodes[u])
            mask = (csr.profiles[lo:hi] >= profile).all(axis=1)
        cand = lo + np.nonzero(mask)[0]
        if pool is not None and u in pool:
            restricted = pool[u]
            cand = restricted[_contains_sorted(cand, restricted)]
        if cand.size == 0:
            return None
        base.append(cand)
        full.append(cand.size == hi - lo and (pool is None or u not in pool))
    return base, full


def _assignment_batches(
    csr: CSRGraph,
    metagraph: Metagraph,
    order: Sequence[int],
    pool: Mapping[int, np.ndarray] | None = None,
    break_symmetry: bool = True,
) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Iterative backtracking over the CSR arrays (see module docstring).

    Yields ``(prefix, tail)`` batches in *order-position* space: every
    embedding of the batch binds ``order[j] -> prefix[j]`` for the first
    ``n - 1`` positions and ``order[n - 1]`` to one element of the
    ``tail`` array (injectivity already enforced).  Batching the whole
    terminal level lets consumers count embeddings without touching them
    one Python object at a time.

    ``pool`` maps pattern nodes to sorted dense-id candidate arrays
    (pins, regions).  ``break_symmetry`` must be off whenever a
    pool restricts nodes asymmetrically — a pin could then exclude an
    embedding whose kept automorphic partner the pool rejects.
    """
    n = metagraph.size
    if metagraph.has_kinds and not csr.has_kinds:
        # a kinded pattern edge can never match a plain graph
        return
    kinds_active = metagraph.has_kinds or csr.has_kinds
    tcodes: list[int] = []
    for u in metagraph.nodes():
        code = csr.type_id(metagraph.node_type(u))
        if code is None:
            return
        tcodes.append(code)
    built = _base_candidates(csr, metagraph, tcodes, pool, kinds_active)
    if built is None:
        return
    base, base_full = built
    if n == 1:
        yield (), base[0]
        return
    neighbors_at, nonneighbors_at = _prefix_structure(metagraph, order)
    cut = _symmetry_cut(metagraph, order) if break_symmetry else None
    # per position: the signature code each matched-neighbour slice must
    # carry, aligned with neighbors_at[i] (kinded graphs only)
    sig_code_at: list[list[int | None]] = []
    if kinds_active:
        for i, u in enumerate(order):
            sig_code_at.append(
                [
                    csr.sig_id(*metagraph.edge_signature(order[j], u))
                    for j in neighbors_at[i]
                ]
            )

    assignment = [0] * n  # dense graph ids, indexed by order position
    used: set[int] = set()
    rows: list[np.ndarray] = [base[order[0]]] + [None] * (n - 1)  # type: ignore[list-item]
    pos = [0] * n
    last = n - 1
    # injectivity at the terminal level: only earlier positions of the
    # terminal node's *type* can collide with its (typed) candidates
    clash_positions = [
        j for j in range(last) if tcodes[order[j]] == tcodes[order[last]]
    ]

    empty = np.empty(0, dtype=csr.indices.dtype)

    def candidates(i: int) -> np.ndarray:
        code = tcodes[order[i]]
        nbr_positions = neighbors_at[i]
        if nbr_positions:
            if kinds_active:
                slices = []
                for k, j in enumerate(nbr_positions):
                    sig = sig_code_at[i][k]
                    if sig is None:
                        return empty
                    slices.append(
                        csr.typed_neighbors_sig(assignment[j], code, sig)
                    )
            else:
                slices = [
                    csr.typed_neighbors(assignment[j], code)
                    for j in nbr_positions
                ]
            if len(slices) == 1:
                cand = slices[0]
            else:
                k_min = min(range(len(slices)), key=lambda k: slices[k].size)
                cand = slices[k_min]
                for k, other in enumerate(slices):
                    if k == k_min or cand.size == 0:
                        continue
                    cand = cand[_contains_sorted(other, cand)]
            if cand.size and not base_full[order[i]]:
                cand = cand[_contains_sorted(base[order[i]], cand)]
        else:
            cand = base[order[i]]
        for j in nonneighbors_at[i]:
            if cand.size == 0:
                break
            adjacent = csr.typed_neighbors(assignment[j], code)
            if adjacent.size:
                cand = cand[~_contains_sorted(adjacent, cand)]
        if cut is not None and i == cut[0] and cand.size:
            bound = assignment[cut[1]]
            if cut[2]:
                cand = cand[cand.searchsorted(bound, side="right") :]
            else:
                cand = cand[: cand.searchsorted(bound, side="left")]
        return cand

    depth = 0
    while depth >= 0:
        row = rows[depth]
        k = pos[depth]
        if k >= row.size:
            depth -= 1
            if depth >= 0:
                used.discard(assignment[depth])
            continue
        pos[depth] = k + 1
        v = int(row[k])
        if v in used:
            continue
        assignment[depth] = v
        used.add(v)
        if depth == last - 1:
            tail = candidates(last)
            if tail.size:
                hits = []
                for j in clash_positions:
                    p = assignment[j]
                    at = tail.searchsorted(p)
                    if at < tail.size and tail[at] == p:
                        hits.append(at)
                if hits:
                    tail = np.delete(tail, hits)
                if tail.size:
                    yield tuple(assignment[:last]), tail
            used.discard(v)
            continue
        depth += 1
        rows[depth] = candidates(depth)
        pos[depth] = 0


def _embeddings_from_csr(
    csr: CSRGraph,
    metagraph: Metagraph,
    order: Sequence[int],
    pool: Mapping[int, np.ndarray] | None = None,
    break_symmetry: bool = True,
) -> Iterator[Embedding]:
    """Per-embedding dict view of :func:`_assignment_batches` (protocol API)."""
    n = metagraph.size
    node_ids = csr.node_ids
    for prefix, tail in _assignment_batches(
        csr, metagraph, order, pool=pool, break_symmetry=break_symmetry
    ):
        bound = {order[j]: node_ids[prefix[j]] for j in range(n - 1)}
        terminal = order[n - 1]
        for v in tail.tolist():
            embedding = dict(bound)
            embedding[terminal] = node_ids[v]
            yield embedding


def compiled_embedding_matrix(csr: CSRGraph, metagraph: Metagraph) -> np.ndarray:
    """Every (remaining) embedding as one ``(N, n)`` dense-id matrix.

    Column ``u`` holds the image of pattern node ``u``.  This is the
    array-level entry point of the offline counting fast path
    (:func:`repro.index.instance_index.compiled_match_and_count`):
    instance deduplication and Eq. 1–2 counting become ``np.unique``
    calls over integer rows instead of per-embedding Python objects.
    The matrix is materialised in full — at 8 bytes per cell a million
    4-node embeddings cost ~32 MB, far below the per-object cost of the
    equivalent ``Instance`` stream.
    """
    order = compiled_order(csr, metagraph)
    n = metagraph.size
    blocks: list[np.ndarray] = []
    for prefix, tail in _assignment_batches(csr, metagraph, order):
        block = np.empty((tail.size, n), dtype=np.int64)
        for j in range(n - 1):
            block[:, j] = prefix[j]
        block[:, n - 1] = tail
        blocks.append(block)
    if not blocks:
        return np.empty((0, n), dtype=np.int64)
    stacked = np.concatenate(blocks)
    inverse = np.empty(n, dtype=np.int64)
    for position, u in enumerate(order):
        inverse[u] = position
    return stacked[:, inverse]


class CompiledMatcher:
    """The compiled integer-CSR matching engine.

    ``find_embeddings`` derives (and caches) the graph's
    :class:`~repro.graph.csr.CSRGraph` view via
    :func:`~repro.graph.csr.csr_view` and streams embeddings out of the
    kernel.  The offline build skips the stream altogether: it counts
    each metagraph straight off the embedding matrix
    (:func:`~repro.index.instance_index.compiled_match_and_count`).
    """

    name = "Compiled"

    def find_embeddings(
        self, graph: TypedGraph, metagraph: Metagraph
    ) -> Iterator[Embedding]:
        """Yield embeddings covering every instance of the metagraph.

        Automorphic images under the broken twin pair are skipped by
        construction; remaining duplicates fall to the shared
        instance-level deduplication, exactly like SymISO.
        """
        csr = csr_view(graph)
        order = compiled_order(csr, metagraph)
        yield from _embeddings_from_csr(csr, metagraph, order)


def compiled_pinned_embeddings(
    graph: TypedGraph,
    metagraph: Metagraph,
    pins: Mapping[int, NodeId],
    region: Mapping[str, Set] | None = None,
) -> Iterator[Embedding]:
    """Embeddings mapping each pinned pattern node to its pinned graph node.

    ``pins`` (``{pattern_node: graph_node}``, non-empty) root the search
    at the first pin, in :func:`~repro.matching.partition.rooted_order`;
    a pin whose graph node is absent or of the wrong type yields no
    embeddings.  Pins become singleton candidate arrays and the affected region
    becomes per-type dense-id masks for every unpinned pattern node
    (types missing from the mapping admit no candidates).  Symmetry
    breaking is disabled: pins restrict pattern nodes asymmetrically, so
    dropping an embedding in favour of its automorphic partner could
    drop it out of the pinned stream entirely.
    """
    if not pins:
        # raised eagerly (this is not the generator) so the error points
        # at the caller that built the empty pins, not at first iteration
        raise MatchingError("compiled_pinned_embeddings needs at least one pin")
    return _compiled_pinned(graph, metagraph, pins, region)


def _compiled_pinned(
    graph: TypedGraph,
    metagraph: Metagraph,
    pins: Mapping[int, NodeId],
    region: Mapping[str, Set] | None,
) -> Iterator[Embedding]:
    from repro.matching.partition import rooted_order

    csr = csr_view(graph)
    pool: dict[int, np.ndarray] = {}
    for pattern_node, graph_node in pins.items():
        dense = csr.id_of.get(graph_node)
        if (
            dense is None
            or graph.node_type(graph_node) != metagraph.node_type(pattern_node)
        ):
            return
        pool[pattern_node] = np.asarray([dense], dtype=csr.indices.dtype)
    if region is not None:
        encoded: dict[str, np.ndarray] = {}
        for u in metagraph.nodes():
            if u in pool:
                continue
            node_type = metagraph.node_type(u)
            cached = encoded.get(node_type)
            if cached is None:
                cached = csr.encode(region.get(node_type, ()))
                encoded[node_type] = cached
            pool[u] = cached
    order = rooted_order(graph, metagraph, next(iter(pins)))
    yield from _embeddings_from_csr(
        csr, metagraph, order, pool=pool, break_symmetry=False
    )
