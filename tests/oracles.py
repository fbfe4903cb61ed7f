"""Reference implementations the parity tests score the library against.

``src/`` has one read path for the Eq. 1–2 counts: every reader goes
through the compiled CSR snapshot (:mod:`repro.index.compiled`).  The
code it replaced lives on here as the oracle: dense m_x / m_xy vectors
walked straight out of the :class:`MetagraphVectors` ledger's dicts,
Def. 3 as three dense dot products per pair, and the scalar ranker that
scores one candidate at a time.  The same goes for the engine-generic
Eq. 1–2 counting the offline builder's compiled kernel replaced, the
pure-Python pinned enumeration the delta path's compiled one replaced,
and the set-operation shard slicing the mask-based one replaced.
Nothing under ``src/`` may import this module; tests reach into the
ledger's private dicts on purpose (the ``private-ledger-read`` lint
rule keeps the package itself from doing so).
"""

from __future__ import annotations

import numpy as np

from repro.index.instance_index import (
    MetagraphCounts,
    _pair_key,
    count_instances_into,
)
from repro.learning.model import require_valid_k
from repro.matching.backtracking import backtrack_embeddings
from repro.matching.base import deduplicate_instances
from repro.matching.partition import rooted_order
from repro.metagraph.symmetry import anchor_symmetric_pairs


# ----------------------------------------------------------------------
# the dict-backed feature store
# ----------------------------------------------------------------------
def _dense(vectors, sparse_row) -> np.ndarray:
    vec = np.zeros(vectors.catalog_size, dtype=float)
    for mg_id, count in sparse_row.items():
        vec[mg_id] = vectors.transform(count)
    return vec


def node_vector(vectors, x) -> np.ndarray:
    """m_x as a dense float vector of length |M| (Eq. 2)."""
    return _dense(vectors, vectors._node.get(x, {}))


def pair_vector(vectors, x, y) -> np.ndarray:
    """m_xy as a dense float vector of length |M| (Eq. 1)."""
    return _dense(vectors, vectors._pair.get(_pair_key(x, y), {}))


def partners(vectors, x) -> frozenset:
    """Nodes co-occurring with ``x`` in at least one instance."""
    return frozenset(
        b if a == x else a for a, b in vectors._pair if x in (a, b)
    )


def nodes_with_counts(vectors) -> frozenset:
    """All anchor nodes with a non-zero m_x."""
    return frozenset(vectors._node)


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
# engine-generic counting (the builder's compiled kernel replaced it)
# ----------------------------------------------------------------------
def reference_counts(graph, metagraph, anchor_type, engine) -> MetagraphCounts:
    """Eq. 1–2 counts from ``engine``'s deduplicated embedding stream."""
    counts = MetagraphCounts()
    count_instances_into(
        counts,
        deduplicate_instances(engine.find_embeddings(graph, metagraph)),
        anchor_symmetric_pairs(metagraph, anchor_type),
    )
    return counts


def ledger_column(table, mg_id) -> dict:
    """One metagraph's counts out of a ledger dict (``_node`` or ``_pair``)."""
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
        node = ledger_column(vectors._node, mg_id)
        assert node == dict(reference.node_counts), where
        pair = ledger_column(vectors._pair, mg_id)
        assert pair == dict(reference.pair_counts), where


# ----------------------------------------------------------------------
# pure-Python pinned enumeration (the delta path's compiled one replaced it)
# ----------------------------------------------------------------------
def pinned_embeddings(graph, metagraph, pins, region=None):
    """Embeddings mapping each pinned pattern node to its pinned graph node.

    The backtracking reference for
    :func:`repro.matching.compiled.compiled_pinned_embeddings`: the
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
