"""Reference implementations the parity tests score the library against.

``src/`` has one read path for the Eq. 1–2 counts: every reader goes
through the compiled CSR snapshot (:mod:`repro.index.compiled`).  The
code it replaced lives on here as the oracle: dense m_x / m_xy vectors
walked out of dict rows ``{node: {mg_id: count}}`` (:func:`ledger`, the
one place the store's integer arrays turn into dicts), Def. 3 as three
dense dot products per pair, and the scalar ranker that scores one
candidate at a time.  The same goes for the streamed
``Instance`` counter and the engine-generic Eq. 1–2 counting that the
compiled kernel's embedding-matrix counter replaced, the pure-Python
pinned enumeration the delta path's compiled one replaced, the
set-operation shard slicing the mask-based one replaced, and the
miner's MNI support without symmetry breaking.
Nothing under ``src/`` may import this module.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.index.instance_index import MetagraphCounts
from repro.learning.model import require_valid_k
from repro.matching.backtracking import backtrack_embeddings
from repro.matching.base import deduplicate_instances
from repro.matching.ordering import estimated_cost_order
from repro.matching.partition import rooted_order
from repro.metagraph.symmetry import anchor_symmetric_pairs
from repro.mining.grami import SupportEstimate


# ----------------------------------------------------------------------
# the dict-backed feature store
# ----------------------------------------------------------------------
def pair_key(x, y) -> tuple:
    """An unordered pair as one dict key: by value, else by ``repr``."""
    try:
        return (x, y) if x <= y else (y, x)
    except TypeError:
        return (x, y) if repr(x) <= repr(y) else (y, x)


_LEDGERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def ledger(store) -> tuple[dict, dict]:
    """The integer counts of a store or snapshot as dict rows.

    ``({node: {mg_id: count}}, {pair_key(x, y): {mg_id: count}})``, read
    from the compiled arrays (cached per snapshot).  One metagraph's
    counts (:class:`MetagraphCounts`, or the streamed oracle's
    :class:`DictCounts`) read as ``({node: count}, {pair_key(x, y): count})``.
    """
    if isinstance(store, DictCounts):
        return dict(store.node_counts), dict(store.pair_counts)
    if isinstance(store, MetagraphCounts):
        nodes = store.nodes
        return (
            dict(zip(nodes, store.node_count.tolist())),
            {
                pair_key(nodes[a], nodes[b]): int(count)
                for (a, b), count in zip(store.pairs.tolist(), store.pair_count.tolist())
            },
        )
    compiled = store if not hasattr(store, "compile") else store.compile()
    cached = _LEDGERS.get(compiled)
    if cached is None:
        nodes = compiled.nodes

        def rows(indptr, indices, counts):
            bounds, mg_ids, values = indptr.tolist(), indices.tolist(), counts.tolist()
            return [
                dict(zip(mg_ids[lo:hi], values[lo:hi]))
                for lo, hi in zip(bounds, bounds[1:])
            ]

        left, right = compiled.pair_ends()
        cached = (
            dict(zip(nodes, rows(compiled.node_indptr, compiled.node_indices, compiled.node_count))),
            dict(
                zip(
                    [pair_key(nodes[a], nodes[b]) for a, b in zip(left.tolist(), right.tolist())],
                    rows(compiled.pair_indptr, compiled.pair_indices, compiled.pair_count),
                )
            ),
        )
        _LEDGERS[compiled] = cached
    return cached


def make_counts(num_instances=0, node_counts=(), pair_counts=()) -> MetagraphCounts:
    """Array counts from dicts ``{node: count}`` and ``{(x, y): count}``."""
    node_counts, pair_counts = dict(node_counts), dict(pair_counts)
    nodes = list(node_counts)
    for pair in pair_counts:
        nodes += [node for node in pair if node not in nodes]
    at = {node: i for i, node in enumerate(nodes)}
    return MetagraphCounts(
        num_instances=num_instances,
        nodes=tuple(nodes),
        node_count=np.asarray([node_counts.get(n, 0) for n in nodes], dtype=np.int64),
        pairs=np.asarray([[at[x], at[y]] for x, y in pair_counts], dtype=np.int64).reshape(-1, 2),
        pair_count=np.asarray(list(pair_counts.values()), dtype=np.int64),
    )


def _dense(vectors, sparse_row) -> np.ndarray:
    vec = np.zeros(vectors.catalog_size, dtype=float)
    for mg_id, count in sparse_row.items():
        vec[mg_id] = vectors.transform(count)
    return vec


def node_vector(vectors, x) -> np.ndarray:
    """m_x as a dense float vector of length |M| (Eq. 2)."""
    return _dense(vectors, ledger(vectors)[0].get(x, {}))


def pair_vector(vectors, x, y) -> np.ndarray:
    """m_xy as a dense float vector of length |M| (Eq. 1)."""
    return _dense(vectors, ledger(vectors)[1].get(pair_key(x, y), {}))


def partners(vectors, x) -> frozenset:
    """Nodes co-occurring with ``x`` in at least one instance."""
    return frozenset(
        b if a == x else a for a, b in ledger(vectors)[1] if x in (a, b)
    )


def nodes_with_counts(vectors) -> frozenset:
    """All anchor nodes with a non-zero m_x."""
    return frozenset(ledger(vectors)[0])


def triplet_rows(triplets, vectors, active_ids) -> dict[str, np.ndarray]:
    """The five per-triplet stacks, gathered from the dict rows."""
    cols = np.asarray(sorted(active_ids), dtype=int)
    return {
        "m_qx": np.array([pair_vector(vectors, q, x)[cols] for q, x, _ in triplets]),
        "m_qy": np.array([pair_vector(vectors, q, y)[cols] for q, _, y in triplets]),
        "m_q": np.array([node_vector(vectors, q)[cols] for q, _, _ in triplets]),
        "m_x": np.array([node_vector(vectors, x)[cols] for _, x, _ in triplets]),
        "m_y": np.array([node_vector(vectors, y)[cols] for _, _, y in triplets]),
    }


# ----------------------------------------------------------------------
# Def. 3 on dense vectors
# ----------------------------------------------------------------------
def mgp_from_vectors(m_xy, m_x, m_y, w) -> float:
    """pi(x, y; w) from raw vectors."""
    denominator = float(m_x @ w + m_y @ w)
    if denominator <= 0.0:
        return 0.0
    return 2.0 * float(m_xy @ w) / denominator


def mgp_gradient_from_vectors(m_xy, m_x, m_y, w) -> np.ndarray:
    """d pi(x,y;w) / d w as a vector (zero where the denominator is zero)."""
    denominator = float(m_x @ w + m_y @ w)
    if denominator <= 0.0:
        return np.zeros_like(w)
    numerator = float(m_xy @ w)
    return (2.0 * denominator * m_xy - 2.0 * numerator * (m_x + m_y)) / (
        denominator * denominator
    )


def mgp(vectors, x, y, w) -> float:
    """pi(x, y; w) against a vector store; pi(x, x) = 1."""
    if x == y:
        return 1.0
    return mgp_from_vectors(
        pair_vector(vectors, x, y),
        node_vector(vectors, x),
        node_vector(vectors, y),
        w,
    )


# ----------------------------------------------------------------------
# the scalar ranker
# ----------------------------------------------------------------------
class ScalarModel:
    """A :class:`ProximityModel` look-alike that never touches the CSR.

    One dense :func:`mgp` call per candidate, a full sort by
    ``(-score, repr)``.  Same rank order as the compiled kernel; scores
    agree to float summation order (exactly so for dyadic weights).
    """

    def __init__(self, weights, vectors):
        self.weights = np.asarray(weights, dtype=float)
        self.vectors = vectors

    @classmethod
    def like(cls, model) -> "ScalarModel":
        """The oracle twin of a library model (same weights, same store)."""
        return cls(model.weights, model.vectors)

    def proximity(self, x, y) -> float:
        return mgp(self.vectors, x, y, self.weights)

    def explain(self, x, y) -> dict[int, float]:
        """Every positive Def. 3 summand of pi(x, y), by metagraph id."""
        if x == y:
            return {}
        denominator = float(
            node_vector(self.vectors, x) @ self.weights
            + node_vector(self.vectors, y) @ self.weights
        )
        if denominator <= 0.0:
            return {}
        shares = 2.0 * self.weights * pair_vector(self.vectors, x, y) / denominator
        return {int(i): float(s) for i, s in enumerate(shares) if s > 0.0}

    def rank(self, query, universe=None, k=None):
        require_valid_k(k)
        if k is not None and k <= 0:
            return []
        candidates = partners(self.vectors, query)
        if universe is None:
            scored = [
                (node, self.proximity(query, node))
                for node in candidates
                if node != query
            ]
        else:
            members = set(universe)
            scored = [
                (node, self.proximity(query, node))
                for node in candidates
                if node != query and node in members
            ]
            scored.extend(
                (node, 0.0)
                for node in members
                if node != query and node not in candidates
            )
        scored.sort(key=lambda pair: (-pair[1], repr(pair[0])))
        return scored[:k] if k is not None else scored


# ----------------------------------------------------------------------
# the streamed Instance counter and engine-generic counting (the
# compiled kernel's embedding-matrix counter replaced both)
# ----------------------------------------------------------------------
def instance_anchor_pairs(instance, sym_pairs) -> set:
    """The distinct symmetric anchor pairs one instance realises.

    Derived from the instance's witness embedding; invariant under the
    witness choice because the symmetric pattern-node pairs are closed
    under automorphisms.
    """
    emb = instance.embedding  # indexed by pattern node (0..n-1)
    return {pair_key(emb[u], emb[v]) for u, v in sym_pairs}


def count_instances_into(counts, instances, sym_pairs) -> None:
    """Fold a stream of instances into ``counts`` per Eq. 1–2."""
    if not sym_pairs:
        # No symmetric anchor pair: the metagraph cannot contribute to
        # anchor-anchor proximity (Eq. 1 is empty) — only |I(M)| counts.
        for _ in instances:
            counts.num_instances += 1
        return
    for instance in instances:
        counts.num_instances += 1
        pairs_here = instance_anchor_pairs(instance, sym_pairs)
        nodes_here = {n for pair in pairs_here for n in pair}
        for pair in pairs_here:
            counts.pair_counts[pair] += 1
        # repro-lint: ignore[unordered-iter] -- commutative `+= 1` fold; the Counter value per node is order-independent
        for node in nodes_here:
            counts.node_counts[node] += 1


@dataclass
class DictCounts:
    """Eq. 1–2 counts for one metagraph in dict form (the streamed oracle's)."""

    num_instances: int = 0
    node_counts: Counter = field(default_factory=Counter)
    pair_counts: Counter = field(default_factory=Counter)


def reference_counts(graph, metagraph, anchor_type, engine) -> DictCounts:
    """Eq. 1–2 counts from ``engine``'s deduplicated embedding stream."""
    counts = DictCounts()
    count_instances_into(
        counts,
        deduplicate_instances(engine.find_embeddings(graph, metagraph)),
        anchor_symmetric_pairs(metagraph, anchor_type),
    )
    return counts


def ledger_column(table, mg_id) -> dict:
    """One metagraph's counts out of a :func:`ledger` dict."""
    return {key: row[mg_id] for key, row in table.items() if mg_id in row}


def assert_counts_match_engine(vectors, index, graph, catalog, engine) -> None:
    """The built store and index hold exactly ``engine``'s reference counts."""
    matched = index.matched_ids()
    assert vectors.matched_ids == matched
    for mg_id in sorted(matched):
        reference = reference_counts(
            graph, catalog[mg_id], catalog.anchor_type, engine
        )
        where = (engine.name, mg_id)
        assert index.num_instances(mg_id) == reference.num_instances, where
        node_rows, pair_rows = ledger(vectors)
        node = ledger_column(node_rows, mg_id)
        assert node == dict(reference.node_counts), where
        pair = ledger_column(pair_rows, mg_id)
        assert pair == dict(reference.pair_counts), where


# ----------------------------------------------------------------------
# pure-Python pinned enumeration (the delta path's compiled one replaced it)
# ----------------------------------------------------------------------
def pinned_embeddings(graph, metagraph, pins, region=None):
    """Embeddings mapping each pinned pattern node to its pinned graph node.

    The backtracking reference for
    :func:`repro.matching.compiled.compiled_pinned_matrix`: the
    search is rooted at the first pin; a pin whose graph node is absent
    or of the wrong type yields nothing; ``region`` restricts every
    unpinned pattern node per type (types missing from it admit no
    candidates).
    """
    if not pins:
        raise ValueError("pinned_embeddings needs at least one pin")
    for pattern_node, graph_node in pins.items():
        if (
            graph_node not in graph
            or graph.node_type(graph_node) != metagraph.node_type(pattern_node)
        ):
            return
    pool = {pattern_node: {graph_node} for pattern_node, graph_node in pins.items()}
    if region is not None:
        for u in metagraph.nodes():
            if u not in pool:
                pool[u] = set(region.get(metagraph.node_type(u), ()))
    order = rooted_order(graph, metagraph, next(iter(pins)))
    yield from backtrack_embeddings(graph, metagraph, order, candidate_pool=pool)


# ----------------------------------------------------------------------
# unbroken MNI support (the miner's symmetry-broken one replaced it)
# ----------------------------------------------------------------------
def unbroken_mni_support(
    graph, pattern, threshold, embedding_budget=None, cardinalities=None
) -> SupportEstimate:
    """MNI support over *every* non-induced embedding, one at a time.

    The reference for :func:`repro.mining.grami.mni_support`, with the
    same signature and the same early exits: ``threshold`` once every
    pattern node has that many distinct images, a budget hit after
    ``embedding_budget`` embeddings.
    """
    order = estimated_cost_order(graph, pattern, cardinalities)
    images: list[set] = [set() for _ in range(pattern.size)]
    enumerated = 0
    for embedding in backtrack_embeddings(graph, pattern, order, induced=False):
        enumerated += 1
        for u, v in embedding.items():
            images[u].add(v)
        if all(len(s) >= threshold for s in images):
            return SupportEstimate(threshold, budget_hit=False)
        if embedding_budget is not None and enumerated >= embedding_budget:
            return SupportEstimate(min(len(s) for s in images), budget_hit=True)
    return SupportEstimate(min(len(s) for s in images), budget_hit=False)


# ----------------------------------------------------------------------
# set-operation shard slicing (the mask-based one replaced it)
# ----------------------------------------------------------------------
def _take_rows(indptr, indices, data, rows):
    counts = indptr[rows + 1] - indptr[rows]
    out_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=out_indptr[1:])
    positions = np.repeat(indptr[rows], counts) + (
        np.arange(int(out_indptr[-1]), dtype=np.int64) - np.repeat(out_indptr[:-1], counts)
    )
    return out_indptr, np.asarray(indices[positions]), np.asarray(data[positions])


def reference_shard(compiled, lo, hi) -> dict:
    """Every array of the shard owning rows ``[lo, hi)``, by ``union1d``/``unique``."""
    a, b = int(compiled.pair_ptr[lo]), int(compiled.pair_ptr[hi])
    cand_global = compiled.partner_pos[a:b]
    pair_global = compiled.entry_pair[a:b]
    local_nodes = np.union1d(np.arange(lo, hi, dtype=np.int64), cand_global).astype(np.int64)
    pair_rows = np.unique(pair_global).astype(np.int64)
    node_indptr, node_indices, node_data = _take_rows(
        compiled.node_indptr, compiled.node_indices, compiled.node_data, local_nodes
    )
    pair_indptr, pair_indices, pair_data = _take_rows(
        compiled.pair_indptr, compiled.pair_indices, compiled.pair_data, pair_rows
    )
    return {
        "nodes": tuple(compiled.nodes[i] for i in local_nodes),
        "own_offset": int(np.searchsorted(local_nodes, lo)),
        "node_indptr": node_indptr,
        "node_indices": node_indices,
        "node_data": node_data,
        "pair_indptr": pair_indptr,
        "pair_indices": pair_indices,
        "pair_data": pair_data,
        "cand_ptr": np.asarray(compiled.pair_ptr[lo : hi + 1] - a, dtype=np.int64),
        "cand_local": np.searchsorted(local_nodes, cand_global).astype(np.int64),
        "cand_pair": np.searchsorted(pair_rows, pair_global).astype(np.int64),
    }
