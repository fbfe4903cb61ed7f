"""Node-range shards of a :class:`~repro.index.compiled.CompiledVectors`.

The compiled CSR snapshot serves one process well, but the ROADMAP's
serving tier wants to spread a query batch over several workers (and,
eventually, machines).  :func:`partition_compiled` splits the anchor
universe into ``K`` contiguous node-range shards; each
:class:`CompiledShard` is self-contained:

- the *owned* rows — the contiguous global position range ``[lo, hi)``
  whose queries this shard answers;
- the owned rows' candidate lists (partner positions and pair rows),
  rebased onto shard-local ids;
- the node CSR rows of every *referenced* node — owned plus the "halo"
  of partners living in other shards' ranges (their ``m_x . w`` is
  needed for MGP denominators) — and the pair CSR rows its candidate
  lists touch.

Because every CSR row is sliced intact (same nonzeros, same order), a
shard's per-row dot products are bit-identical to the unsharded
snapshot's, so sharded rankings merge bit-identically to the
single-process compiled path (proven by tests/serving/test_shards.py).

Slicing is one cheap vectorised pass per shard: the referenced nodes
and pair rows are picked with boolean masks over the universe, and a
``cumsum`` of each mask gives every picked row its local id — no set
operations, no sorting.  It is O(nnz), so the router simply re-slices
every shard when an update changes the snapshot.

A shard deliberately quacks like a ``CompiledVectors`` where the
scoring code cares (``nodes``, ``num_nodes``, ``node_dot_products``,
``pair_dot_products``, ``candidates_of``), so
:meth:`~repro.learning.model.SortedUniverse.mask_over` and
:func:`~repro.learning.model.rank_candidates` run over a shard exactly
as they run over the whole snapshot.
"""

from __future__ import annotations

import numpy as np

from repro.graph.typed_graph import NodeId
from repro.index.compiled import (
    CompiledVectors,
    csr_dot_products,
    csr_row_index,
    take_csr_rows,
)


def _ranked(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The set positions of ``mask``, and every position's rank among them.

    ``rank[i]`` is the number of set positions before ``i``: the local
    id of a set position ``i`` once the set positions are numbered in
    ascending order.
    """
    rank = np.cumsum(mask, dtype=np.int64)
    rank -= mask
    return np.flatnonzero(mask).astype(np.int64, copy=False), rank


class CompiledShard:
    """One self-contained node-range slice of a compiled universe."""

    def __init__(
        self,
        shard_id: int,
        lo: int,
        hi: int,
        nodes: tuple[NodeId, ...],
        own_offset: int,
        node_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
        pair_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
        cand_ptr: np.ndarray,
        cand_local: np.ndarray,
        cand_pair: np.ndarray,
    ):
        self.shard_id = shard_id
        self.lo = lo
        self.hi = hi
        # all referenced nodes (owned + halo) in ascending global
        # position; owned rows are the block starting at own_offset
        self.nodes = nodes
        self.own_offset = own_offset
        self.node_indptr, self.node_indices, self.node_data = node_csr
        self.pair_indptr, self.pair_indices, self.pair_data = pair_csr
        self.cand_ptr = cand_ptr
        self.cand_local = cand_local
        self.cand_pair = cand_pair
        self._node_rows = csr_row_index(self.node_indptr)
        self._pair_rows = csr_row_index(self.pair_indptr)
        for array in (
            self.node_indptr, self.node_indices, self.node_data,
            self.pair_indptr, self.pair_indices, self.pair_data,
            self.cand_ptr, self.cand_local, self.cand_pair,
        ):
            array.setflags(write=False)

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Referenced rows (owned + halo) — the ``mask_over`` contract."""
        return len(self.nodes)

    @property
    def num_owned(self) -> int:
        """Rows whose queries this shard answers."""
        return self.hi - self.lo

    @property
    def num_pairs(self) -> int:
        return len(self.pair_indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.node_data) + len(self.pair_data)

    def owns(self, global_pos: int) -> bool:
        return self.lo <= global_pos < self.hi

    def local_row(self, global_pos: int) -> int:
        """Local row of an *owned* global position."""
        if not self.owns(global_pos):
            raise IndexError(
                f"global position {global_pos} outside shard range "
                f"[{self.lo}, {self.hi})"
            )
        return self.own_offset + (global_pos - self.lo)

    def candidates_of(self, local_row: int) -> tuple[np.ndarray, np.ndarray]:
        """(local partner rows, local pair rows) of an owned local row."""
        own = local_row - self.own_offset
        a, b = self.cand_ptr[own], self.cand_ptr[own + 1]
        return self.cand_local[a:b], self.cand_pair[a:b]

    # ------------------------------------------------------------------
    # per-model dot products (the same shared O(nnz) pass as
    # CompiledVectors, over the row-intact slices)
    # ------------------------------------------------------------------
    def node_dot_products(self, weights: np.ndarray) -> np.ndarray:
        return csr_dot_products(
            self._node_rows, self.node_indices, self.node_data,
            weights, self.num_nodes,
        )

    def pair_dot_products(self, weights: np.ndarray) -> np.ndarray:
        return csr_dot_products(
            self._pair_rows, self.pair_indices, self.pair_data,
            weights, self.num_pairs,
        )

    def __repr__(self) -> str:
        return (
            f"<CompiledShard {self.shard_id}: rows [{self.lo}, {self.hi}), "
            f"{self.num_nodes} referenced nodes, {self.num_pairs} pairs, "
            f"{self.nnz} nonzeros>"
        )


def shard_ranges(num_nodes: int, num_shards: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[lo, hi)`` row ranges covering the universe.

    Mirrors ``np.array_split``: the first ``num_nodes % num_shards``
    shards get one extra row.  ``num_shards`` larger than the universe
    yields trailing empty shards, which the router simply never routes
    to.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    base, extra = divmod(num_nodes, num_shards)
    ranges = []
    lo = 0
    for s in range(num_shards):
        hi = lo + base + (1 if s < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def _slice_shard(
    compiled: CompiledVectors, shard_id: int, lo: int, hi: int
) -> CompiledShard:
    """Build the self-contained shard for global row range ``[lo, hi)``."""
    a, b = int(compiled.pair_ptr[lo]), int(compiled.pair_ptr[hi])
    cand_global = compiled.partner_pos[a:b]
    pair_global = compiled.entry_pair[a:b]
    cand_ptr = np.asarray(compiled.pair_ptr[lo : hi + 1] - a, dtype=np.int64)

    # referenced rows: the owned range plus the halo of partners, in
    # ascending global — i.e. repr — order, which the tie-break relies
    # on; a referenced row's local id is its rank among them
    referenced = np.zeros(compiled.num_nodes, dtype=bool)
    referenced[lo:hi] = True
    referenced[cand_global] = True
    local_nodes, local_of = _ranked(referenced)
    cand_local = local_of[cand_global]
    own_offset = int(np.count_nonzero(referenced[:lo]))

    touched = np.zeros(compiled.num_pairs, dtype=bool)
    touched[pair_global] = True
    pair_rows, pair_of = _ranked(touched)
    cand_pair = pair_of[pair_global]

    node_csr = take_csr_rows(compiled.node_csr, local_nodes)
    pair_csr = take_csr_rows(compiled.pair_csr, pair_rows)
    nodes = compiled.nodes
    return CompiledShard(
        shard_id,
        lo,
        hi,
        tuple([nodes[i] for i in local_nodes.tolist()]),
        own_offset,
        node_csr,
        pair_csr,
        cand_ptr,
        cand_local,
        cand_pair,
    )


def extract_shard(
    compiled: CompiledVectors, shard_id: int, num_shards: int
) -> CompiledShard:
    """Slice shard ``shard_id`` of ``num_shards`` out of a snapshot.

    The standalone-worker entry point: with the snapshot opened
    ``mmap_mode="r"`` (:func:`~repro.index.persist.load_compiled`) the
    row gathers touch only this shard's slice plus its halo, so a
    worker materialises its own node range without ever paging the
    rest of the universe in — identical arrays to the corresponding
    element of :func:`partition_compiled`.
    """
    ranges = shard_ranges(compiled.num_nodes, num_shards)
    if not 0 <= shard_id < num_shards:
        raise ValueError(
            f"shard_id must be in [0, {num_shards}), got {shard_id}"
        )
    lo, hi = ranges[shard_id]
    return _slice_shard(compiled, shard_id, lo, hi)


def partition_compiled(
    compiled: CompiledVectors, num_shards: int
) -> list[CompiledShard]:
    """Slice a compiled snapshot into ``num_shards`` node-range shards."""
    return [
        _slice_shard(compiled, shard_id, lo, hi)
        for shard_id, (lo, hi) in enumerate(
            shard_ranges(compiled.num_nodes, num_shards)
        )
    ]
