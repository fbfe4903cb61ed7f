"""Reference implementations the parity tests score the library against.

``src/`` has one read path for the Eq. 1–2 counts: every reader goes
through the compiled CSR snapshot (:mod:`repro.index.compiled`).  The
code it replaced lives on here as the oracle: dense m_x / m_xy vectors
walked straight out of the :class:`MetagraphVectors` ledger's dicts,
Def. 3 as three dense dot products per pair, and the scalar ranker that
scores one candidate at a time.  Nothing under ``src/`` may import this
module; tests reach into the ledger's private dicts on purpose (the
``private-ledger-read`` lint rule keeps the package itself from doing
so).
"""

from __future__ import annotations

import numpy as np

from repro.index.instance_index import _pair_key
from repro.learning.model import require_valid_k


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
