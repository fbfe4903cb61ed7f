"""Pairwise ranking objective (Eq. 4–5) over precomputed triplet matrices.

Each training example is a triplet ``(q, x, y)``: x should rank before y
for query q.  The probability of an example (Eq. 4) is a sigmoid of the
proximity difference, and training maximises the log-likelihood (Eq. 5):

    P(q,x,y;w) = 1 / (1 + exp(-mu * (pi(q,x;w) - pi(q,y;w))))
    L(w)       = sum log P(q,x,y;w)

:class:`TripletMatrices` gathers the five metagraph vectors per triplet
(m_qx, m_qy, m_q, m_x, m_y) from the store's compiled CSR rows,
restricted to the *active* metagraph ids, so likelihood and gradient
evaluation are single numpy expressions.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import TrainingDataError
from repro.graph.typed_graph import NodeId
from repro.index.vectors import MetagraphVectors
from repro.learning.proximity import batch_mgp, batch_mgp_gradient

Triplet = tuple[NodeId, NodeId, NodeId]


class TripletMatrices:
    """Dense per-triplet vector stacks restricted to active metagraph ids."""

    def __init__(
        self,
        triplets: Sequence[Triplet],
        vectors: MetagraphVectors,
        active_ids: Sequence[int],
    ):
        if not triplets:
            raise TrainingDataError("no training triplets supplied")
        if not len(active_ids):
            raise TrainingDataError("no active metagraph ids supplied")
        self.active_ids = np.asarray(sorted(active_ids), dtype=int)
        if len(set(active_ids)) != len(self.active_ids):
            raise TrainingDataError("active metagraph ids contain duplicates")
        cols = self.active_ids
        compiled = vectors.compile()
        n = len(triplets)
        d = len(cols)
        self.m_qx = np.empty((n, d))
        self.m_qy = np.empty((n, d))
        self.m_q = np.empty((n, d))
        self.m_x = np.empty((n, d))
        self.m_y = np.empty((n, d))
        for row, (q, x, y) in enumerate(triplets):
            if x == y or q == x or q == y:
                raise TrainingDataError(
                    f"degenerate triplet {(q, x, y)!r}: nodes must be distinct"
                )
            # a node without counts has no compiled row: all zeros
            iq, ix, iy = (compiled.position(node) for node in (q, x, y))
            self.m_q[row] = compiled.node_vector_dense(iq)[cols]
            self.m_x[row] = compiled.node_vector_dense(ix)[cols]
            self.m_y[row] = compiled.node_vector_dense(iy)[cols]
            self.m_qx[row] = compiled.pair_vector_dense(compiled.pair_row(iq, ix))[cols]
            self.m_qy[row] = compiled.pair_vector_dense(compiled.pair_row(iq, iy))[cols]

    @property
    def num_triplets(self) -> int:
        """Number of training examples."""
        return len(self.m_q)

    @property
    def dim(self) -> int:
        """Number of active metagraph ids."""
        return len(self.active_ids)

    def expand(self, w_active: np.ndarray, full_size: int) -> np.ndarray:
        """Scatter an active-space weight vector into the full id space."""
        full = np.zeros(full_size)
        full[self.active_ids] = w_active
        return full


def example_probabilities(
    matrices: TripletMatrices, w: np.ndarray, mu: float
) -> np.ndarray:
    """P(q,x,y;w) per triplet (Eq. 4)."""
    pi_x = batch_mgp(matrices.m_qx, matrices.m_q, matrices.m_x, w)
    pi_y = batch_mgp(matrices.m_qy, matrices.m_q, matrices.m_y, w)
    # numerically stable sigmoid
    z = mu * (pi_x - pi_y)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def log_likelihood(matrices: TripletMatrices, w: np.ndarray, mu: float) -> float:
    """L(w; Omega) (Eq. 5), with probabilities floored for stability."""
    probs = example_probabilities(matrices, w, mu)
    return float(np.sum(np.log(np.maximum(probs, 1e-300))))


def log_likelihood_gradient(
    matrices: TripletMatrices, w: np.ndarray, mu: float
) -> np.ndarray:
    """Gradient of L w.r.t. the active weights (Sect. III-B)."""
    probs = example_probabilities(matrices, w, mu)
    grad_x = batch_mgp_gradient(matrices.m_qx, matrices.m_q, matrices.m_x, w)
    grad_y = batch_mgp_gradient(matrices.m_qy, matrices.m_q, matrices.m_y, w)
    coeff = mu * (1.0 - probs)
    return coeff @ (grad_x - grad_y)
