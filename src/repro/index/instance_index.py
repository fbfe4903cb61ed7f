"""Eq. 1–2 instance counting for metagraph vectors (offline subproblem 2).

For each metagraph we need, per Eq. 1–2:

- the pair count of ``(x, y)`` — the number of instances containing
  both ``x`` and ``y`` at symmetric anchor positions (unordered pair,
  each instance counted once per distinct pair it realises);
- the node count of ``x`` — the number of instances containing ``x`` at
  a symmetric anchor position (each instance counted once per distinct
  node).

The symmetric-position pairs of an instance are derived from one witness
embedding; they are independent of which embedding is used because the
set of symmetric pattern-node pairs is invariant under automorphisms
(conjugating the witness involution by an automorphism gives another
involutive automorphism).

One function produces the counts: :func:`count_embeddings` turns an
embedding matrix of the compiled kernel into :class:`MetagraphCounts`,
integer arrays over a table of the original node ids.  The offline
build (:func:`~repro.index.parallel.build_index`) feeds it a whole
metagraph's matrix through :func:`compiled_match_and_count`; the delta
path (:mod:`repro.index.delta`) feeds it the concatenated pinned
matrices of its localized re-matching.  Both enumerations are
symmetry-broken, so each matrix holds one row per instance, and every
row is an injective embedding, so an instance's anchor pairs and anchor
nodes are distinct by construction: the counter tallies them directly
and never deduplicates.  Both hand the arrays to
:class:`~repro.index.vectors.MetagraphVectors` as they are.

:class:`InstanceIndex` keeps the other per-metagraph figure, ``|I(M)|``.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DeltaError
from repro.graph.csr import CSRGraph
from repro.graph.typed_graph import NodeId
from repro.matching.compiled import compiled_embedding_matrix
from repro.metagraph.metagraph import Metagraph
from repro.metagraph.symmetry import anchor_symmetric_pairs


@dataclass(frozen=True, eq=False)
class MetagraphCounts:
    """Eq. 1–2 counts for one metagraph, as integer arrays.

    ``nodes`` is the node table: every anchor node with a count, in the
    dense-id order of the graph view the counts were taken on.
    ``node_count[i]`` is the count of ``nodes[i]``; pair ``k`` joins
    ``nodes[pairs[k, 0]]`` and ``nodes[pairs[k, 1]]`` and has count
    ``pair_count[k]``.
    """

    num_instances: int = 0
    nodes: tuple[NodeId, ...] = ()
    node_count: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    pairs: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    pair_count: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


def count_embeddings(
    csr: CSRGraph,
    embeddings: np.ndarray,
    sym_pairs: Collection[tuple[int, int]],
) -> MetagraphCounts:
    """Eq. 1–2 counts of an ``(N, n)`` dense-id embedding matrix.

    ``embeddings`` holds one embedding per instance (column ``u`` is
    the image of pattern node ``u``, in ``csr``'s dense ids), so
    ``num_instances`` is the row count: the offline build's plan breaks
    all of Aut(M), and the delta path pins one representative per
    Aut(M)-orbit under a plan that breaks its stabiliser.

    Precondition: every row is injective, as every kernel row is (and
    so every concatenation of kernel matrices).  ``sym_pairs`` lists
    each unordered pattern-node pair once, so the images of one row's
    pairs are distinct node pairs and the images of the nodes they
    cover are distinct nodes: the pair tallies are one ``np.unique``
    over one integer code per (row, pair), the node tallies one over
    those nodes' columns.  Original node ids are decoded once per
    *unique* node.  The pair set of an instance does not depend on
    which embedding witnesses it (symmetric pattern-node pairs are
    closed under automorphisms — see the module docstring).
    """
    num_rows = embeddings.shape[0]
    if num_rows == 0 or not sym_pairs:
        # No symmetric anchor pair: the metagraph cannot contribute to
        # anchor-anchor proximity (Eq. 1 is empty) — only |I(M)| counts.
        return MetagraphCounts(num_instances=num_rows)
    # dense ids are int32, so an unordered pair packs into one int64
    # (lo * stride + hi < 2^62) with no overflow risk
    stride = max(csr.num_nodes, 1)
    pairs = sorted(sym_pairs)
    code = np.empty(num_rows * len(pairs), dtype=np.int64)
    for k, (u, v) in enumerate(pairs):
        a, b = embeddings[:, u], embeddings[:, v]
        out = code[k * num_rows : (k + 1) * num_rows]
        np.minimum(a, b, out=out)
        out *= stride
        out += np.maximum(a, b)
    uniq_codes, pair_tallies = np.unique(code, return_counts=True)
    del code
    covered = sorted({u for pair in pairs for u in pair})
    uniq_nodes, node_tallies = np.unique(embeddings[:, covered], return_counts=True)
    node_ids = csr.node_ids
    ends = np.stack([uniq_codes // stride, uniq_codes % stride], axis=1)
    return MetagraphCounts(
        num_instances=num_rows,
        nodes=tuple(node_ids[c] for c in uniq_nodes.tolist()),
        node_count=node_tallies.astype(np.int64),
        pairs=np.searchsorted(uniq_nodes, ends).astype(np.int64),
        pair_count=pair_tallies.astype(np.int64),
    )


def compiled_match_and_count(
    csr: CSRGraph, metagraph: Metagraph, anchor_type: str = "user"
) -> MetagraphCounts:
    """Eq. 1–2 counts of one metagraph over the whole graph (offline build)."""
    return count_embeddings(
        csr,
        compiled_embedding_matrix(csr, metagraph),
        anchor_symmetric_pairs(metagraph, anchor_type),
    )


class InstanceIndex:
    """Which metagraphs were matched, and their ``|I(M)|``, filled incrementally.

    Dual-stage training matches only a subset of the catalog; the index
    records which metagraph ids have been matched so downstream code can
    distinguish "zero count" from "never matched".  The Eq. 1–2 counts
    themselves live in one place, the integer arrays of
    :class:`~repro.index.vectors.MetagraphVectors`.
    """

    def __init__(self, catalog_size: int, anchor_type: str = "user"):
        self.catalog_size = catalog_size
        self.anchor_type = anchor_type
        self._totals: dict[int, int] = {}

    def add(self, mg_id: int, counts: MetagraphCounts) -> None:
        """Record a matched metagraph id and its instance total."""
        if not 0 <= mg_id < self.catalog_size:
            raise IndexError(f"metagraph id {mg_id} outside catalog of size {self.catalog_size}")
        self._totals[mg_id] = counts.num_instances

    def patch(
        self, mg_id: int, retired: MetagraphCounts, added: MetagraphCounts
    ) -> None:
        """Apply a delta to a matched metagraph's ``|I(M)|``.

        Going negative means the delta is wrong and raises
        :class:`~repro.exceptions.DeltaError`.
        """
        if mg_id not in self._totals:
            raise DeltaError(
                f"metagraph id {mg_id} was never matched; cannot patch"
            )
        total = self._totals[mg_id] + added.num_instances - retired.num_instances
        if total < 0:
            raise DeltaError(
                f"metagraph {mg_id}: retired more instances than existed"
            )
        self._totals[mg_id] = total

    def matched_ids(self) -> frozenset[int]:
        """Ids whose instances have been computed."""
        return frozenset(self._totals)

    def is_matched(self, mg_id: int) -> bool:
        """True iff the metagraph has been matched."""
        return mg_id in self._totals

    def num_instances(self, mg_id: int) -> int:
        """|I(M)| for a matched metagraph id."""
        return self._totals[mg_id]

    def __len__(self) -> int:
        return len(self._totals)
