"""Compiled matching kernel: one executor of a match plan, on integer CSR.

A search's constraints live in one :class:`~repro.matching.plan.MatchPlan`
(order, earlier neighbours with their edge signatures, earlier
non-neighbours, symmetry bounds).  The dict-of-set backtracker
(:func:`repro.matching.backtracking.backtrack_embeddings`) executes a
plan one candidate at a time; :func:`assignment_batches` executes it
over :class:`~repro.graph.csr.CSRGraph` arrays:

- **candidate regions** come from one vectorised comparison of the
  per-(type, signature) neighbourhood-profile matrix against the
  pattern node's profile (:func:`profile_candidates`, the one region
  filter: TurboISO's and BoostISO's
  :func:`repro.matching.turboiso.candidate_regions` is its node-id
  view);
- **candidate generation** intersects, by binary search on whole
  arrays, the sorted (type, signature) blocks that the edges to the
  matched pattern neighbours select (seeded from the smallest block,
  as the Python executor does).  Plain and kinded graphs take this one
  path: a graph without edge kinds has the one signature ``("", 0)``;
- the plan's **non-neighbours** (induced semantics, Def. 2) mask out
  candidates found in any block of the type (the type's S blocks are
  one contiguous slice, sorted when S > 1), with the same
  binary-search membership test;
- the backtracking itself is **iterative** (an explicit stack of
  candidate arrays), so deep patterns never touch Python's recursion
  machinery;
- the plan's **symmetry bounds** (the stabiliser-chain conditions of
  :func:`~repro.metagraph.symmetry.symmetry_conditions`) compare dense
  ids, and all bounds at one position cut the sorted candidate array
  to one slice.  Under induced semantics two embeddings of the same
  instance differ by an automorphism, so a plan broken over all of
  Aut(M) produces every *instance* exactly once (the contract of
  :class:`~repro.matching.base.MatcherProtocol` asks for at least once),
  and a plan broken over the stabiliser of its pins every instance
  that maps each pin to its pattern node exactly once.

Every production match runs here; each consumer states its semantics
where it builds its plan.  The offline build's
:func:`compiled_embedding_matrix` is induced and broken over Aut(M);
the delta path's :func:`compiled_pinned_matrix` is induced and broken
over the pins' stabiliser, with pins and the affected region as a
candidate pool.  Both hand ``(N, n)`` dense-id matrices
(:func:`embedding_matrix`) with one row per instance to the Eq. 1–2
counter (:func:`repro.index.instance_index.count_embeddings`).  The
miner's MNI support (:func:`repro.mining.grami.mni_support`) reads
non-induced batches broken over Aut(M); rewrite-rule bindings
(:meth:`repro.index.rewrite.RewriteRule.bindings`) are induced and
unbroken.

The kernel is instance-set-identical to ``SymISO`` (the cross-matcher
parity suite pins this), which makes the Eq. 1–2
:class:`~repro.index.instance_index.MetagraphCounts` bit-identical.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence, Set

import numpy as np

from repro.exceptions import MatchingError
from repro.graph.csr import CSRGraph, csr_view
from repro.graph.typed_graph import NodeId, TypedGraph
from repro.matching.base import Embedding
from repro.matching.ordering import connected_order_from, estimated_cost_order
from repro.matching.plan import MatchPlan
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
    """The paper's estimated-cost matching order over ``csr``'s type totals."""
    return estimated_cost_order(metagraph, csr)


def profile_candidates(
    csr: CSRGraph,
    metagraph: Metagraph,
    tcodes: Sequence[int],
    pool: Mapping[int, np.ndarray] | None,
) -> tuple[list[np.ndarray], list[bool]] | None:
    """Per-pattern-node global candidate arrays (profile filter ∩ pool).

    ``tcodes[u]`` is pattern node ``u``'s type code in ``csr`` and
    ``pool`` optionally maps pattern nodes to sorted dense-id arrays.
    Returns the arrays plus a per-node "is the whole type class" flag —
    a full base filters nothing, so the search skips intersecting
    against it.  Returns None when some pattern node has no candidates
    at all, which includes a pattern edge whose neighbour type or edge
    signature the graph lacks (a kinded pattern on a plain graph).  The
    filter compares per-(type, signature) block counts, so a node
    lacking the right labeled/directed neighbour edges is pruned up
    front.
    """
    num_sigs = csr.num_sigs
    base: list[np.ndarray] = []
    full: list[bool] = []
    for u in metagraph.nodes():
        profile = np.zeros(csr.num_types * num_sigs, dtype=csr.profiles.dtype)
        for v in metagraph.neighbors(u):
            code_v = csr.type_id(metagraph.node_type(v))
            sig = csr.sig_index.get(metagraph.edge_signature(u, v))
            if code_v is None or sig is None:  # absent type or signature: no match
                return None
            profile[code_v * num_sigs + sig] += 1
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


def assignment_batches(
    csr: CSRGraph,
    plan: MatchPlan,
    pool: Mapping[int, np.ndarray] | None = None,
) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Iterative backtracking over the CSR arrays (see module docstring).

    Executes ``plan`` and yields ``(prefix, tail)`` batches in
    *order-position* space: every embedding of the batch binds
    ``order[j] -> prefix[j]`` for the first ``n - 1`` positions and
    ``order[n - 1]`` to one element of the ``tail`` array (injectivity
    already enforced).  Batching the whole terminal level lets consumers
    count embeddings without touching them one Python object at a time.
    Symmetry bounds compare dense ids.

    ``pool`` maps pattern nodes to sorted dense-id candidate arrays
    (pins, regions).  On a broken plan it must be invariant under the
    plan's group, or it could reject the one embedding of an instance
    the symmetry conditions keep: a fixed node may have any pool, and
    the other nodes of one type must all share one array or all have
    none (:class:`~repro.exceptions.MatchingError` otherwise).
    """
    metagraph = plan.metagraph
    if pool is not None and plan.fixed is not None:
        shared: dict[str, np.ndarray | None] = {}
        for u in metagraph.nodes():
            array = pool.get(u)
            if u in plan.fixed or shared.setdefault(metagraph.node_type(u), array) is array:
                continue
            raise MatchingError("a candidate pool must be invariant under the broken group")
    order = plan.order
    n = metagraph.size
    tcodes: list[int] = []
    for u in metagraph.nodes():
        code = csr.type_id(metagraph.node_type(u))
        if code is None:
            return
        tcodes.append(code)
    built = profile_candidates(csr, metagraph, tcodes, pool)
    if built is None:
        return
    base, base_full = built
    if n == 1:
        yield (), base[0]
        return
    # (earlier position, block column) pairs, once per plan: each earlier
    # neighbour's block of the edge's (type, signature) (every signature
    # is present, or the profile filter returned None), and each earlier
    # non-neighbour's first block of the type, whose S blocks are contiguous
    num_sigs = csr.num_sigs
    indices, block_ptr = csr.indices, csr.block_ptr
    neighbor_blocks_at: list[list[tuple[int, int]]] = []
    nonneighbor_blocks_at: list[list[tuple[int, int]]] = []
    for i, u in enumerate(order):
        first = tcodes[u] * num_sigs
        neighbor_blocks_at.append([
            (j, first + csr.sig_index[signature])
            for j, signature in zip(plan.neighbors_at[i], plan.signatures_at[i])
        ])
        nonneighbor_blocks_at.append([(j, first) for j in plan.nonneighbors_at[i]])
    lower_at, upper_at = plan.lower_at, plan.upper_at
    bounded_at = [bool(lo or hi) for lo, hi in zip(lower_at, upper_at)]

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

    def bounded(i: int, cand: np.ndarray) -> np.ndarray:
        # the symmetry conditions checked at position i: one slice of
        # the sorted candidates between the largest lower bound and the
        # smallest upper bound (sliced first, so every later filter
        # runs on the slice)
        start, stop = 0, cand.size
        if lower_at[i]:
            lo = max(assignment[j] for j in lower_at[i])
            start = int(cand.searchsorted(lo, side="right"))
        if upper_at[i]:
            hi = min(assignment[j] for j in upper_at[i])
            stop = int(cand.searchsorted(hi, side="left"))
        return cand[start:stop]

    def candidates(i: int) -> np.ndarray:
        neighbor_blocks = neighbor_blocks_at[i]
        if neighbor_blocks:
            slices = [
                indices[block_ptr[assignment[j], c] : block_ptr[assignment[j], c + 1]]
                for j, c in neighbor_blocks
            ]
            k_min = 0
            if len(slices) > 1:
                k_min = min(range(len(slices)), key=lambda k: slices[k].size)
            cand = slices[k_min]
            if bounded_at[i]:
                cand = bounded(i, cand)
            for k, other in enumerate(slices):
                if k == k_min or cand.size == 0:
                    continue
                cand = cand[_contains_sorted(other, cand)]
            if cand.size and not base_full[order[i]]:
                cand = cand[_contains_sorted(base[order[i]], cand)]
        else:
            cand = base[order[i]]
            if bounded_at[i]:
                cand = bounded(i, cand)
        for j, c in nonneighbor_blocks_at[i]:
            if cand.size == 0:
                break
            adjacent = indices[block_ptr[assignment[j], c] : block_ptr[assignment[j], c + num_sigs]]
            if adjacent.size:
                if num_sigs > 1:  # one sorted array out of the type's S sorted blocks
                    adjacent = np.sort(adjacent)
                cand = cand[~_contains_sorted(adjacent, cand)]
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


def embeddings_from_csr(csr: CSRGraph, plan: MatchPlan) -> Iterator[Embedding]:
    """Per-embedding dict view of :func:`assignment_batches` (protocol API)."""
    order = plan.order
    n = len(order)
    node_ids = csr.node_ids
    for prefix, tail in assignment_batches(csr, plan):
        bound = {order[j]: node_ids[prefix[j]] for j in range(n - 1)}
        terminal = order[n - 1]
        for v in tail.tolist():
            embedding = dict(bound)
            embedding[terminal] = node_ids[v]
            yield embedding


def embedding_matrix(
    csr: CSRGraph,
    plan: MatchPlan,
    pool: Mapping[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Stack :func:`assignment_batches` into one ``(N, n)`` dense-id matrix.

    Column ``u`` holds the image of pattern node ``u``.  The batches
    are collected first and the C-contiguous int64 result is allocated
    once: the tails fill column ``order[-1]`` and each prefix position
    ``j`` is repeated over its batch's tail into column ``order[j]``.
    At 8 bytes per cell a million 4-node embeddings cost ~32 MB, far
    below the per-object cost of the equivalent dict / ``Instance``
    stream.
    """
    order = plan.order
    heads: list[tuple[int, ...]] = []
    tails: list[np.ndarray] = []
    for prefix, tail in assignment_batches(csr, plan, pool):
        heads.append(prefix)
        tails.append(tail)
    sizes = np.fromiter((tail.size for tail in tails), dtype=np.int64, count=len(tails))
    matrix = np.empty((int(sizes.sum()), len(order)), dtype=np.int64)
    if tails:
        np.concatenate(tails, out=matrix[:, order[-1]])
        prefixes = np.array(heads, dtype=np.int64)
        for j, u in enumerate(order[:-1]):
            matrix[:, u] = np.repeat(prefixes[:, j], sizes)
    return matrix


def compiled_embedding_matrix(csr: CSRGraph, metagraph: Metagraph) -> np.ndarray:
    """One embedding per instance, as one ``(N, n)`` dense-id matrix.

    This is the array-level entry point of the offline build
    (:func:`repro.index.instance_index.compiled_match_and_count`):
    Eq. 1–2 counting becomes ``np.unique`` calls over integer rows
    instead of per-embedding Python objects.  Symmetry breaking is
    complete, so ``N`` is the instance count |I(M)|.
    """
    plan = MatchPlan(metagraph, compiled_order(csr, metagraph), induced=True, fixed=())
    return embedding_matrix(csr, plan)


def compiled_pinned_matrix(
    graph: TypedGraph,
    metagraph: Metagraph,
    pins: Mapping[int, NodeId],
    region: Mapping[str, Set] | None = None,
) -> np.ndarray:
    """One row per instance that maps each pinned pattern node to its graph node.

    Returns the same ``(N, n)`` matrix as :func:`compiled_embedding_matrix`,
    in the dense ids of ``csr_view(graph)``.  ``pins``
    (``{pattern_node: graph_node}``, non-empty, pattern nodes in
    ``0..n-1``) root the search at the first pin, in
    :func:`~repro.matching.ordering.connected_order_from`; a pin whose
    graph node is absent or of the wrong type yields no rows.  Pins
    become singleton candidate arrays and the affected region becomes
    per-type dense-id masks for every unpinned pattern node (types
    missing from the mapping admit no candidates).  The plan breaks the
    pins' stabiliser, the automorphisms that fix every pin; one mask
    per type is invariant under it, so no instance is lost.
    """
    if not pins:
        raise MatchingError("compiled_pinned_matrix needs at least one pin")
    outside = [p for p in pins if p not in range(metagraph.size)]
    if outside:
        raise MatchingError(
            f"pins {outside!r} outside pattern 0..{metagraph.size - 1}"
        )
    csr = csr_view(graph)
    pool: dict[int, np.ndarray] = {}
    for pattern_node, graph_node in pins.items():
        dense = csr.id_of.get(graph_node)
        if (
            dense is None
            or graph.node_type(graph_node) != metagraph.node_type(pattern_node)
        ):
            return np.empty((0, metagraph.size), dtype=np.int64)
        pool[pattern_node] = np.asarray([dense], dtype=csr.indices.dtype)
    if region is not None:
        encoded = {t: csr.encode(region.get(t, ())) for t in dict.fromkeys(metagraph.types)}
        for u in metagraph.nodes():
            pool.setdefault(u, encoded[metagraph.node_type(u)])
    order = connected_order_from(graph, metagraph, next(iter(pins)))
    plan = MatchPlan(metagraph, order, induced=True, fixed=tuple(pins))
    return embedding_matrix(csr, plan, pool)


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
        """Yield one embedding per instance of the metagraph, exactly once.

        The symmetry-breaking conditions skip every automorphic image of
        a kept embedding by construction, so no instance repeats.
        """
        csr = csr_view(graph)
        order = compiled_order(csr, metagraph)
        plan = MatchPlan(metagraph, order, induced=True, fixed=())
        yield from embeddings_from_csr(csr, plan)

