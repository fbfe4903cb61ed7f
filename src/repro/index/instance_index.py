"""Eq. 1–2 instance counting for metagraph vectors (offline subproblem 2).

For each metagraph we need, per Eq. 1–2:

- ``pair_counts[(x, y)]`` — the number of instances containing both
  ``x`` and ``y`` at symmetric anchor positions (unordered pair, each
  instance counted once per distinct pair it realises);
- ``node_counts[x]`` — the number of instances containing ``x`` at a
  symmetric anchor position (each instance counted once per distinct
  node).

The symmetric-position pairs of an instance are derived from one witness
embedding; they are independent of which embedding is used because the
set of symmetric pattern-node pairs is invariant under automorphisms
(conjugating the witness involution by an automorphism gives another
involutive automorphism).

One function produces the counts: :func:`count_embeddings` turns an
embedding matrix of the compiled kernel into :class:`MetagraphCounts`.
The offline build (:func:`~repro.index.parallel.build_index`) feeds it
a whole metagraph's matrix through :func:`compiled_match_and_count`;
the delta path (:mod:`repro.index.delta`) feeds it the concatenated
pinned matrices of its localized re-matching.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DeltaError
from repro.graph.csr import CSRGraph
from repro.graph.typed_graph import NodeId
from repro.matching.compiled import compiled_embedding_matrix
from repro.metagraph.metagraph import Metagraph
from repro.metagraph.symmetry import anchor_symmetric_pairs

Pair = tuple[NodeId, NodeId]


def _pair_key(x: NodeId, y: NodeId) -> Pair:
    try:
        return (x, y) if x <= y else (y, x)  # type: ignore[operator]
    except TypeError:
        return (x, y) if repr(x) <= repr(y) else (y, x)


@dataclass
class MetagraphCounts:
    """Eq. 1–2 counts for one metagraph."""

    num_instances: int = 0
    node_counts: Counter = field(default_factory=Counter)
    pair_counts: Counter = field(default_factory=Counter)


def count_embeddings(
    csr: CSRGraph,
    embeddings: np.ndarray,
    sym_pairs: Collection[tuple[int, int]],
) -> MetagraphCounts:
    """Eq. 1–2 counts of an ``(N, n)`` dense-id embedding matrix.

    ``embeddings`` holds one embedding per row (column ``u`` is the
    image of pattern node ``u``, in ``csr``'s dense ids); rows may
    repeat instances.  The offline build's matrix already holds one row
    per instance (the kernel's symmetry breaking is complete); the
    pinned matrices of the delta path do repeat them.  So instances
    still deduplicate as sorted integer rows under one ``np.unique``
    (for the pinned path, and as a safety net for the offline one),
    symmetric anchor pairs are encoded as single integers and tallied
    by a second ``np.unique``, and original node ids are decoded once
    per *unique* pair or node.  The pair set
    of an instance does not depend on which witness row ``np.unique``
    keeps (symmetric pattern-node pairs are closed under automorphisms
    — see the module docstring).
    """
    counts = MetagraphCounts()
    if embeddings.shape[0] == 0:
        return counts
    keys = np.sort(embeddings, axis=1)
    _, first = np.unique(keys, axis=0, return_index=True)
    counts.num_instances = int(first.size)
    if not sym_pairs:
        # No symmetric anchor pair: the metagraph cannot contribute to
        # anchor-anchor proximity (Eq. 1 is empty) — only |I(M)| counts.
        return counts
    witnesses = embeddings[first]
    node_ids = csr.node_ids
    # dense ids are int32, so an unordered pair packs into one int64
    # (lo * stride + hi < 2^62) with no overflow risk; the *instance*
    # dimension is deliberately NOT packed into the same scalar — that
    # triple product could wrap int64 on huge graphs — and is deduped by
    # lexsort over (instance, code) instead (1-D ops stay fast).
    stride = max(csr.num_nodes, 1)
    code_cols = []
    for u, v in sorted(sym_pairs):
        a, b = witnesses[:, u], witnesses[:, v]
        code_cols.append(np.minimum(a, b) * stride + np.maximum(a, b))
    rows = np.repeat(np.arange(first.size), len(code_cols))
    code = np.stack(code_cols, axis=1).ravel()
    order = np.lexsort((code, rows))
    rows, code = rows[order], code[order]
    keep = np.ones(rows.size, dtype=bool)  # an instance counts each
    keep[1:] = (rows[1:] != rows[:-1]) | (code[1:] != code[:-1])  # pair once
    rows, code = rows[keep], code[keep]
    uniq_codes, pair_tallies = np.unique(code, return_counts=True)
    counts.pair_counts.update(
        {
            _pair_key(node_ids[c // stride], node_ids[c % stride]): count
            for c, count in zip(uniq_codes.tolist(), pair_tallies.tolist())
        }
    )
    # ... and each node once, however many of its pairs the instance has
    node_rows = np.concatenate([rows, rows])
    node_vals = np.concatenate([code // stride, code % stride])
    order = np.lexsort((node_vals, node_rows))
    node_rows, node_vals = node_rows[order], node_vals[order]
    keep = np.ones(node_rows.size, dtype=bool)
    keep[1:] = (node_rows[1:] != node_rows[:-1]) | (node_vals[1:] != node_vals[:-1])
    uniq_nodes, node_tallies = np.unique(node_vals[keep], return_counts=True)
    counts.node_counts.update(
        {
            node_ids[c]: count
            for c, count in zip(uniq_nodes.tolist(), node_tallies.tolist())
        }
    )
    return counts


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
    themselves live in one place, the
    :class:`~repro.index.vectors.MetagraphVectors` ledger.
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
